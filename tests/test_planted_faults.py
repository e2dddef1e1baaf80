"""Planted faults: each row plants one fault and names the check that must catch it.

A fault is a monkeypatch of a module attribute; nothing under src/ is
written. Each row first runs its check without the fault, where it must
pass, so that no row can pass vacuously. A check that turns red must also
leave no output behind, except in the last test, which shows that without
the writer's digit pre-check a too-long set does leave output behind.
"""

import pytest

import convexdiff as cd
from convexdiff import InvalidInput, Thm1Params, cli, constructions
from convexdiff.cli import main


def _splice_one_past_j(monkeypatch):
    """_best_splice keeps a_(j+1) in the prefix: the seam loses its convexity."""
    best_splice = constructions._best_splice

    def shifted(ea, eb):
        found = best_splice(ea, eb)
        return None if found is None else (found[0], found[1] + 1)

    monkeypatch.setattr(constructions, "_best_splice", shifted)


def _bend_last_block(monkeypatch):
    """Thm1Params.block at k_max gets a gap that shrinks, in the part the splice drops."""
    block = Thm1Params.block

    def bent(self, k):
        values = block(self, k)
        if k == self.k_max:
            values[1] = values[2] - 1
        return values

    monkeypatch.setattr(Thm1Params, "block", bent)


def _glue_chain_1000(out_dir):
    cd.glue_chain(1000)


def _glue_cli_1000(out_dir):
    assert main(["glue", "--n", "1000", "--out", str(out_dir / "s.json")]) == 0


ROWS = [
    pytest.param(_splice_one_past_j, _glue_chain_1000, AssertionError, id="splice-j+1/glue_chain"),
    pytest.param(_splice_one_past_j, _glue_cli_1000, AssertionError, id="splice-j+1/glue-cli"),
    pytest.param(_bend_last_block, _glue_chain_1000, InvalidInput, id="bent-block/glue_chain"),
]


@pytest.mark.parametrize("plant, check, error", ROWS)
def test_planted_fault_turns_its_check_red(plant, check, error, monkeypatch, tmp_path):
    clean, planted = tmp_path / "clean", tmp_path / "planted"
    clean.mkdir()
    planted.mkdir()
    check(clean)
    plant(monkeypatch)
    with pytest.raises(error):
        check(planted)
    assert list(planted.iterdir()) == []


def test_digit_precheck_is_what_keeps_too_long_sets_unwritten(monkeypatch, tmp_path, digit_limit):
    """The elements of thm3_set(1400) have up to 4829 digits. With the pre-check
    the command exits 2 and writes no file; without it the streamed write
    fails part way, after the file is opened."""
    out = tmp_path / "a.json"
    argv = ["construct", "thm3", "--n", "1400", "--out", str(out)]
    assert main(argv) == 2 and not out.exists()
    monkeypatch.setattr(cli, "_check_writable", lambda s: None)
    with pytest.raises(ValueError, match="digits"):
        main(argv)
    assert out.exists()
