"""Where the unlinkability boundary actually sits.

Each game hands an adversary everything a corrupted coalition would see in
one round (delivered messages, corrupted keys, the aggregate if the
concentrator is theirs) and asks which of two chosen measurements went to
which challenged meter. A coalition that cannot beat a coin gets a win rate
near one half.

Two coalitions are maximal: every meter except the two challenged ones, or
the concentrator alone. Add one more party to either and the game flips to
certainty; the breach families stage exactly that coalition, with the
challenged meter first in the sending list and a corrupted meter right
behind it, and win every trial by recovering the plaintext itself.

Run:  python3 demos/privacy_games.py          (about 15 seconds)
"""

from ftagg.game import (
    FAMILIES,
    GameSetup,
    attack_dc_plus_neighbor,
    empirical_unlinkability,
    run_trial,
)
from ftagg.model import MaskingSpec, Scenario, full_mesh

TRIALS = 400


def main() -> None:
    print(f"{'family':<26} {'strategy':<16} {'rate':>6}   99% interval")
    print("-" * 68)
    for family in FAMILIES:
        stats = empirical_unlinkability(family, TRIALS, seed=2026)
        print(
            f"{family:<26} {stats.strategy:<16} {stats.rate:>6.3f}   "
            f"[{stats.ci_low:.3f}, {stats.ci_high:.3f}]"
        )
    print()

    # one breach trial in slow motion: corrupted concentrator plus the meter
    # right after the challenged one, measurement recovered exactly
    setup = GameSetup(
        scenario=Scenario(
            n_sm=4,
            graph=full_mesh(4),
            sending_list=(1, 2, 3, 4),
            n_min=2,
            round=0,
            measurements={2: 10, 4: 20},
            backend=MaskingSpec(),
            seed=31,
        ),
        challenged=(1, 3),
        m0=481,
        m1=77,
        corrupted_dc=True,
        corrupted_sms=frozenset({2, 4}),
    )
    trial = run_trial(setup)
    assigned = setup.m0 if trial.secret_bit == 0 else setup.m1
    recovered = attack_dc_plus_neighbor(setup)
    print(f"breach trial: secret bit {trial.secret_bit}, challenged meter was "
          f"assigned {assigned}")
    print(f"adversary subtracts its handoff view and unmasks: {recovered}")
    assert recovered == assigned


if __name__ == "__main__":
    main()
