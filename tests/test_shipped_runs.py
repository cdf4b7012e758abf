"""The byte comparison of two output trees of ``tests/shipped_runs.py``:
a difference passes only if ``tests/declared_drift.txt`` declares it."""

import pytest

import shipped_runs


def _tree(top, files):
    for path, text in files.items():
        (top / path).parent.mkdir(parents=True, exist_ok=True)
        (top / path).write_text(text)
    return str(top)


REPORT = "robin-disk-derive/robin-report.json"
BASE = {REPORT: '{"dJ": 0.1}\n', "robin-disk-derive/exit.txt": "0\n"}


@pytest.mark.parametrize("head,declared,faults", [
    (BASE, {}, []),
    # one ulp of dJ, undeclared, then declared
    ({**BASE, REPORT: '{"dJ": 0.10000000000000002}\n'}, {}, [REPORT]),
    ({**BASE, REPORT: '{"dJ": 0.10000000000000002}\n'}, {REPORT: "a reason"}, []),
    # a stale declaration
    (BASE, {REPORT: "a reason"}, [REPORT]),
    # a file that only one tree has, in a run that both have
    ({REPORT: BASE[REPORT]}, {}, ["robin-disk-derive/exit.txt"]),
    ({**BASE, "robin-disk-derive/robin-fd.csv": "s\r\n"}, {}, ["robin-disk-derive/robin-fd.csv"]),
    # a run that only the head tree has is new, and allowed
    ({**BASE, "new-validate/exit.txt": "0\n"}, {}, [])])
def test_only_declared_differences_pass(tmp_path, capsys, head, declared, faults):
    ours, base = _tree(tmp_path / "head", head), _tree(tmp_path / "base", BASE)
    assert shipped_runs.compare(ours, base, declared) == faults
    out = capsys.readouterr().out
    assert all(f"FAIL {path}: " in out for path in faults)


def test_declared_drift_reads_path_and_reason(tmp_path):
    path = tmp_path / "drift.txt"
    path.write_text(f"\n{REPORT}  the solve is refined\n")
    assert shipped_runs.declared_drift(str(path)) == {REPORT: "the solve is refined"}
    path.write_text(f"{REPORT}\n")
    with pytest.raises(ValueError, match="expected 'path  reason'"):
        shipped_runs.declared_drift(str(path))


def test_the_committed_declarations_parse():
    shipped_runs.declared_drift()
