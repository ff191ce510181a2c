"""The CI workflow holds every mapping key once, and every step is well formed.

The stock YAML loaders keep the last of two equal keys without a word, so a
step written over another one's lines still parses; this loader refuses it.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


class UniqueKeyLoader(yaml.SafeLoader):
    pass


def _unique_mapping(loader, node, deep=False):
    seen = set()
    for key_node, _ in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in seen:
            raise yaml.constructor.ConstructorError(
                None, None, f"repeated key {key!r}", key_node.start_mark
            )
        seen.add(key)
    return loader.construct_mapping(node, deep)


UniqueKeyLoader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _unique_mapping)


def load(text: str):
    return yaml.load(text, Loader=UniqueKeyLoader)


def test_the_loader_refuses_a_step_written_over_another():
    text = (
        "steps:\n"
        "  - name: Ring\n"
        "    shell: bash\n"
        "    run: ring\n"
        "    shell: bash\n"
        "    run: demos\n"
    )
    assert yaml.safe_load(text) == {"steps": [{"name": "Ring", "shell": "bash", "run": "demos"}]}
    with pytest.raises(yaml.constructor.ConstructorError, match="repeated key 'shell'"):
        load(text)


def test_every_step_has_one_name_and_one_action():
    workflow = load(WORKFLOW.read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert isinstance(step.get("name"), str) and step["name"], step
        assert ("run" in step) != ("uses" in step), step["name"]
