import dataclasses
import re
from pathlib import Path

from rankmobility.corpus import CorpusFilterConfig
from rankmobility.disambig import CRITERIA
from rankmobility.pipeline import PipelineConfig
from rankmobility.synth import SynthConfig

from conftest import REMOVED_SYNTH_SETTINGS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _quoted(text: str) -> set[str]:
    return set(re.findall(r"`([^`\n]+)`", text))


def test_readme_generator_paragraph_lists_exactly_the_config_fields():
    paragraph = re.search(r"\*\*Generator config \(JSON\)\.\*\*.*?(?:\n\n|\Z)", README, re.S).group(0)
    assert sorted(_names(SynthConfig) - _quoted(paragraph)) == []
    assert [key for key in REMOVED_SYNTH_SETTINGS if key in paragraph] == []


def test_readme_names_every_pipeline_and_filter_key_and_criterion():
    quoted = _quoted(README)
    for names in (_names(PipelineConfig), _names(CorpusFilterConfig), set(CRITERIA)):
        assert sorted(names - quoted) == []
