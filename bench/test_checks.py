"""Self-tests of the benchmark's output checks: python3 -m pytest bench"""

import pytest

import hostspeed
import run
from checks import CheckError, check_classify, check_oracle, check_scan, content_digest


def scan_report(n_reps, m, dirac, best, iters, limit, passes_hit=3):
    lines = ["# rmcover 0.1.0", "# config 0123456789abcdef", "# seed 5"]
    found = 0
    for i in range(n_reps):
        for shift in range(1 << m) if dirac else ["-"]:
            hit = best <= limit
            found += hit
            tag = shift if shift == "-" else format(shift, "x")
            lines.append(f"rep {i} shift {tag} found {str(hit).lower()} best {best} "
                         f"passes {passes_hit if hit else iters}")
    total = n_reps * ((1 << m) if dirac else 1)
    lines.append(f"found {found} not-found {total - found}")
    return "\n".join(lines) + "\n"


def test_scan_accepts_consistent_reports():
    plain = check_scan(scan_report(2, 3, False, 2, 16, 3), 2, 3, 1, 3, 16, False)
    assert plain == {"entries": 2, "found": 2, "passes": 6}
    dirac = check_scan(scan_report(2, 3, True, 5, 16, 3), 2, 3, 1, 3, 16, True)
    assert dirac == {"entries": 16, "found": 0, "passes": 256}


def test_dirac_line_with_even_weight_is_rejected():
    text = scan_report(2, 3, True, 5, 16, 3).replace(
        "rep 1 shift 7 found false best 5", "rep 1 shift 7 found false best 4")
    with pytest.raises(CheckError, match="parity"):
        check_scan(text, 2, 3, 1, 3, 16, True)


def test_plain_line_with_odd_weight_is_rejected():
    text = scan_report(1, 3, False, 6, 16, 3).replace("best 6", "best 7")
    with pytest.raises(CheckError, match="parity"):
        check_scan(text, 1, 3, 1, 3, 16, False)


def test_found_flag_must_match_limit():
    text = scan_report(1, 3, False, 4, 16, 3).replace("found false", "found true")
    with pytest.raises(CheckError, match="limit"):
        check_scan(text, 1, 3, 1, 3, 16, False)


def test_miss_must_use_the_whole_budget():
    text = scan_report(1, 3, False, 4, 16, 3).replace("passes 16", "passes 15")
    with pytest.raises(CheckError, match="budget"):
        check_scan(text, 1, 3, 1, 3, 16, False)


def test_every_translate_appears_once():
    text = scan_report(1, 3, True, 5, 16, 3)
    dropped = "\n".join(l for l in text.split("\n") if "shift 6 " not in l)
    with pytest.raises(CheckError):
        check_scan(dropped, 1, 3, 1, 3, 16, True)
    doubled = text.replace("shift 6 ", "shift 5 ")
    with pytest.raises(CheckError, match="duplicate"):
        check_scan(doubled, 1, 3, 1, 3, 16, True)


ORACLE = """#%rmcover classification v1
#%space 1 1 2
#%digest 0
R 0 1 0
R 1 3 a
S 0 1,2;0
S 1 -
"""


def test_oracle_rules():
    assert check_oracle(ORACLE, (1, 1, 2), 2) == {"classes": 2}
    with pytest.raises(CheckError, match="stabilizer"):
        check_oracle(ORACLE.replace("S 1 -\n", ""), (1, 1, 2), 2)
    with pytest.raises(CheckError, match="sum"):
        check_oracle(ORACLE.replace("R 1 3 a", "R 1 2 a"), (1, 1, 2), 2)
    with pytest.raises(CheckError, match="classes"):
        check_oracle(ORACLE, (1, 1, 2), 3)


CLASSIFY_REPORT = """# rmcover 0.1.0
# config 0123456789abcdef
# seed 0
classes 2 buckets 2 cover 3 (initial 8) equiv-calls 1
"""
CLASSIFY_FILE = ORACLE.replace("#%space 1 1 2", "#%space 2 2 3")


def test_classify_rules():
    counts = check_classify(CLASSIFY_REPORT, CLASSIFY_FILE, (2, 2, 3), 2)
    assert counts["cover"] == 3 and counts["equiv_calls"] == 1
    with pytest.raises(CheckError, match="unresolved"):
        check_classify(CLASSIFY_REPORT + "UNRESOLVED 1 2\n", CLASSIFY_FILE, (2, 2, 3), 2)
    with pytest.raises(CheckError, match="expected 3"):
        check_classify(CLASSIFY_REPORT, CLASSIFY_FILE, (2, 2, 3), 3)


def test_reports_compare_without_config_line():
    other = CLASSIFY_REPORT.replace("0123456789abcdef", "fedcba9876543210")
    assert content_digest(CLASSIFY_REPORT) == content_digest(other)
    assert content_digest(CLASSIFY_REPORT) != content_digest(other.replace("cover 3", "cover 4"))


def test_m8_inputs_follow_the_seed():
    text = run._m8_function_file(7)
    assert text == run._m8_function_file(7) != run._m8_function_file(8)
    anfs = [line.split(None, 3)[3] for line in text.splitlines() if line.startswith("R ")]
    assert anfs[0] == run.QUINTIC
    degrees = {len(term) for anf in anfs for term in anf.split("+")}
    assert degrees <= {5, 6}


def test_records_flag_drift(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    first = {"counts": {"scan.passes": 9}, "outputs": {"scan.report": "d1"}}
    broken = {"counts": {}, "outputs": {}}
    assert run.check_records("chain_m6", 1, "code", broken, clean=False) == []
    assert run.check_records("chain_m6", 1, "code", first) == []
    assert run.check_records("chain_m6", 1, "code", first) == []
    drifted = {"counts": {"scan.passes": 8}, "outputs": {"scan.report": "d1"}}
    assert "counts drifted" in run.check_records("chain_m6", 1, "code", drifted)[0]
    assert run.check_records("chain_m6", 1, "new code", drifted) == []


def test_pooled_outputs_must_equal_serial(tmp_path):
    steps = run.WORKLOADS["chain_m6"](1) + run.POOLED["chain_m6"](1)
    (tmp_path / "pool").mkdir()
    for step in steps:
        for name in step.outputs:
            (tmp_path / name).write_text("# config 0\nsame\n")
    tally = run.Tally()
    digests = run.check_outputs(steps, tmp_path, tally)
    assert tally.failed == 0 and tally.attempted == 4
    assert not any(name.startswith("pool/") for name in digests)
    (tmp_path / "pool" / "dirac.report").write_text("# config 1\nother\n")
    tally = run.Tally()
    run.check_outputs(steps, tmp_path, tally)
    assert tally.failed == 1 and "pool/dirac.report" in tally.problems[0]


def test_host_scale_maps_kernel_time_to_reference_seconds():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale([ref, ref]) == pytest.approx(1.0)
    # a host twice as slow halves the factor that wall times are scaled by
    assert hostspeed.scale([2 * ref, 2 * ref]) == pytest.approx(0.5)
    assert len(hostspeed.sample(2)) == 2


def test_metric_tables_match_benchmark_json():
    import json
    from pathlib import Path

    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
