"""The docs/ tree is code: generated files must be fresh, snippets must run."""

import doctest
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DOCS = REPO_ROOT / "docs"


def _load_gen_isa_reference():
    spec = importlib.util.spec_from_file_location(
        "gen_isa_reference", REPO_ROOT / "scripts" / "gen_isa_reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestIsaReference:
    def test_committed_isa_md_is_up_to_date(self):
        module = _load_gen_isa_reference()
        committed = (DOCS / "isa.md").read_text(encoding="utf-8")
        assert committed == module.generate_markdown(), (
            "docs/isa.md is stale — run `python scripts/gen_isa_reference.py`"
        )

    def test_check_mode_passes_on_fresh_file(self, capsys):
        module = _load_gen_isa_reference()
        assert module.main(["--check"]) == 0

    def test_every_opcode_appears_in_the_table(self):
        from repro.isa.instructions import Opcode

        text = (DOCS / "isa.md").read_text(encoding="utf-8")
        for opcode in Opcode:
            assert f"`{opcode.value}" in text

    def test_operand_and_note_tables_cover_every_opcode(self):
        from repro.isa.instructions import OPCODE_NOTES, OPCODE_OPERANDS, Opcode

        assert set(OPCODE_OPERANDS) == set(Opcode)
        assert set(OPCODE_NOTES) == set(Opcode)


class TestDocSnippets:
    def test_passes_md_doctests_run_clean(self):
        results = doctest.testfile(
            str(DOCS / "passes.md"), module_relative=False, verbose=False
        )
        assert results.attempted > 20
        assert results.failed == 0

    def test_tile_md_doctests_run_clean(self):
        results = doctest.testfile(
            str(DOCS / "tile.md"), module_relative=False, verbose=False
        )
        assert results.attempted > 20
        assert results.failed == 0

    def test_simulator_md_doctests_run_clean(self):
        results = doctest.testfile(
            str(DOCS / "simulator.md"), module_relative=False, verbose=False
        )
        assert results.attempted > 20
        assert results.failed == 0

    def test_profiling_md_doctests_run_clean(self):
        results = doctest.testfile(
            str(DOCS / "profiling.md"), module_relative=False, verbose=False
        )
        assert results.attempted > 20
        assert results.failed == 0

    def test_telemetry_md_doctests_run_clean(self):
        results = doctest.testfile(
            str(DOCS / "telemetry.md"), module_relative=False, verbose=False
        )
        assert results.attempted > 20
        assert results.failed == 0

    def test_kcache_md_doctests_run_clean(self):
        results = doctest.testfile(
            str(DOCS / "kcache.md"), module_relative=False, verbose=False
        )
        assert results.attempted > 20
        assert results.failed == 0

    def test_faults_md_doctests_run_clean(self):
        results = doctest.testfile(
            str(DOCS / "faults.md"), module_relative=False, verbose=False
        )
        assert results.attempted > 20
        assert results.failed == 0

    def test_architecture_doc_names_every_layer(self):
        text = (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")
        for layer in ("arch/", "isa/", "sim/", "model/", "sgemm/", "opt/",
                      "kernels/", "microbench/", "tile/", "telemetry/",
                      "faults/", "kcache/"):
            assert layer in text


def test_scripts_are_importable_without_side_effects():
    # Importing the generator must not write anything.
    before = (DOCS / "isa.md").read_bytes()
    _load_gen_isa_reference()
    assert (DOCS / "isa.md").read_bytes() == before
