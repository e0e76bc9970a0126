"""Golden outputs: every command's exit code, stdout, stderr, warnings and
output files on the configurations of tools/golden.py, against the record
in tests/golden.json (rewritten by `python3 tools/golden.py --record`)."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def test_commands_write_the_recorded_bytes():
    recorded = json.loads(golden.GOLDEN.read_text())
    # the q >= 2 files depend on the BLAS kernels: a record holds for the
    # numpy and BLAS it names
    here = golden.environment()
    assert recorded["environment"] == here, (
        f"tests/golden.json was recorded with {recorded['environment']}, this is {here}: "
        "re-record it with this numpy and BLAS and check the changed entries")
    new = {name: golden.run(command, cfg) for name, command, cfg in golden.runs()}
    assert golden.differences(recorded["runs"], new) == []


def test_differences_name_each_changed_field():
    entry = {"exit": 0, "stdout": "a", "stderr": "b", "warnings": [], "files": {"x.csv": "c"}}
    moved = dict(entry, exit=1, files={"x.csv": "d"})
    assert golden.differences({"r": entry, "gone": entry}, {"r": moved, "new": entry}) == [
        "gone: only in the recorded runs", "new: only in the new runs",
        "r: exit, files differ (recorded [0, {'x.csv': 'c'}], now [1, {'x.csv': 'd'}])"]


def test_record_lists_the_changed_entries(tmp_path, monkeypatch, capsys):
    # --record prints each entry and environment it overwrites, then writes
    recorded = json.loads(golden.GOLDEN.read_text())
    stale = json.loads(json.dumps(recorded))
    stale["environment"] = {"numpy": "0.0", "blas": "none"}
    stale["runs"]["selfsim/elliptic-q2"]["stdout"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(stale))
    monkeypatch.setattr(golden, "GOLDEN", path)
    monkeypatch.setattr(golden, "record", lambda: recorded)
    assert golden.main(["--record"]) == 0
    now = recorded["runs"]["selfsim/elliptic-q2"]["stdout"]
    assert capsys.readouterr().out.splitlines() == [
        f"recorded on {stale['environment']}, run on {recorded['environment']}",
        f"selfsim/elliptic-q2: stdout differ (recorded ['{'0' * 64}'], now ['{now}'])",
        f"recorded {len(recorded['runs'])} runs in {path}"]
    assert json.loads(path.read_text()) == recorded
