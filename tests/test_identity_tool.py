"""tools/identity.py's comparison of two collect directories."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _identity():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(work: Path, files: dict) -> Path:
    work.mkdir()
    for name, text in files.items():
        (work / name).write_text(text)
    return work


def test_compare_lists_one_sided_outputs_and_differing_digests(tmp_path, capsys):
    digests = {"triangle N=12 delta=0.5h points": "aa", "triangle N=12 delta=0.5h L": "bb"}
    parent = _write(tmp_path / "parent", {
        "baseline.json": "{}\n",
        "grid_digests.json": json.dumps(digests),
        # a failing command leaves its stdout file too
        "fiber-bound.json": "",
        "fiber-bound.json.failed": "exit status 2\n",
    })
    tree = _write(tmp_path / "tree", {
        "baseline.json": "{}\n",
        "grid_digests.json": json.dumps({**digests, "triangle N=12 delta=0.5h L": "cc",
                                         "hexagon N=12 delta=0.5h L": "dd"}),
        "fiber-bound.json": "{}\n",
        "extremal.json": "{}\n",
    })
    assert _identity().compare(parent, tree) == 4
    out = capsys.readouterr().out.splitlines()
    assert "extremal.json: only in this tree" in out
    assert "fiber-bound.json differs" in out
    assert "fiber-bound.json: its command fails in the parent only" in out
    assert "grid_digests.json: triangle N=12 delta=0.5h L differs" in out
    assert "grid_digests.json: hexagon N=12 delta=0.5h L only in this tree" in out
    assert not any("baseline" in line or "points" in line for line in out)
    assert out[-1] == "5 outputs compared, 4 differ or fail"


def test_compare_of_equal_directories_finds_nothing(tmp_path, capsys):
    files = {"baseline.json": "{}\n", "grid_digests.json": json.dumps({"k": "v"})}
    assert _identity().compare(_write(tmp_path / "a", files), _write(tmp_path / "b", files)) == 0
    assert capsys.readouterr().out.splitlines() == ["2 outputs compared, 0 differ or fail"]


def test_compare_counts_a_command_failing_alike_in_both_trees(tmp_path, capsys):
    # the same code on both sides fails the same way, with the same outputs
    files = {"baseline.json": "{}\n", "x.json": "", "x.json.failed": "exit status 1\n"}
    assert _identity().compare(_write(tmp_path / "a", files), _write(tmp_path / "b", files)) == 1
    assert capsys.readouterr().out.splitlines() == ["x.json: its command fails in both trees",
                                                    "3 outputs compared, 1 differ or fail"]


def test_compare_lists_library_entries_by_key(tmp_path, capsys):
    library = {"sobolev_inequality_test a": "0.5", "energy_report a": "{}"}
    parent = _write(tmp_path / "parent", {"library.json": json.dumps(library)})
    tree = _write(tmp_path / "tree", {"library.json": json.dumps(
        {**library, "energy_report a": "{'x': 1}", "jets(4) b": "ee"})})
    assert _identity().compare(parent, tree) == 1
    assert capsys.readouterr().out.splitlines() == [
        "library.json: energy_report a differs", "library.json: jets(4) b only in this tree",
        "1 outputs compared, 1 differ or fail"]
