import csv
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from cqms import cli, corep, groups, hopf, io, lipnorm, mkdist

import oracles
from kp8_example import build_kp8


@pytest.fixture(scope="module")
def z4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs") / "z4.json"
    io.dump_group_file(path, groups.cyclic_table(4), metric=groups.arc_metric(4))
    return str(path)


@pytest.fixture(scope="module")
def z8_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs") / "z8.json"
    io.dump_group_file(path, groups.cyclic_table(8), metric=groups.arc_metric(8))
    return str(path)


@pytest.fixture(scope="module")
def s3c_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs") / "s3c.json"
    table = groups.s3_table()
    length = groups.symmetric_word_length(table, groups.s3_word_generators())
    io.dump_group_file(path, table, length=length)
    return str(path)


def test_load_group_file_roundtrip(z4_file):
    loaded = io.load_input(z4_file)
    assert loaded.algebra.kind == "function"
    assert loaded.algebra.dim == 4
    assert hopf.check_axioms(loaded.algebra).passed
    assert len(loaded.irreps_or_default()) == 4


def test_load_group_file_with_irreps(tmp_path, f_s3):
    irreps = corep.default_irreps(f_s3)
    path = tmp_path / "s3.json"
    io.dump_group_file(path, groups.s3_table(), metric=oracles.s3_transposition_metric(),
                       irreps=irreps)
    loaded = io.load_input(str(path))
    assert loaded.irreps is not None
    assert [p.dim for p in loaded.irreps] == [1, 1, 2]
    dec = corep.pw_decompose(loaded.algebra, loaded.irreps)
    assert sum(pi.dim ** 2 for pi in dec.irreps) == loaded.algebra.dim


def test_load_quantum_group_file(tmp_path, f_z4):
    payload = {
        "dim": 4,
        "mult": io._encode_complex(f_z4.mult),
        "comult": io._encode_complex(f_z4.comult),
        "unit": io._encode_complex(f_z4.unit),
        "star": io._encode_complex(f_z4.star),
        "counit": io._encode_complex(f_z4.counit),
        "antipode": io._encode_complex(f_z4.antipode),
        "rep": io._encode_complex(f_z4.rep),
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(payload))
    loaded = io.load_input(str(path))
    assert loaded.source == "quantum_group"
    assert hopf.check_axioms(loaded.algebra).passed
    assert np.allclose(loaded.algebra.haar, f_z4.haar)


def test_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"order": 2,\n "mult_table": [[0, 1], [1, 0]')
    with pytest.raises(io.ParseError, match="line 2"):
        io.load_input(str(path))


def test_cli_check_passes(z4_file, capsys):
    code = cli.main(["check", "--input", z4_file])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "all axioms pass" in out
    assert "max residual" in out


def test_one_parser_serves_every_call_without_leaking_arguments(z4_file, tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    check_file, pw_file, sweep_file = (tmp_path / name for name in ("check.txt", "pw.txt", "sweep.csv"))
    assert cli.main(["check", "--pw", "--input", z4_file, "--seed", "3", "--output", str(check_file)]) == 0
    assert cli.main(["pw", "--input", z4_file, "--output", str(pw_file)]) == 0
    assert cli.main(["sweep", "--input", z4_file, "--samples", "5", "--output", str(sweep_file)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(["check", "--input", z4_file]) == 0
    out = capsys.readouterr().out
    assert "all axioms pass" in out and "peter-weyl" not in out       # no --pw, no --output carried over
    assert "peter-weyl: 4 irreps" in check_file.read_text()
    assert pw_file.read_text().startswith("irrep 0") and sweep_file.read_text().startswith("lambda_id,")
    for argv in (["check", "--input", z4_file, "--samples", "5"], ["sweep"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    assert cli.main(["check", "--input", z4_file]) == 0 and "all axioms pass" in capsys.readouterr().out


def test_cli_check_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope}")
    code = cli.main(["check", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert "parse error" in err
    assert "line" in err and "column" in err


def test_cli_check_pw_incomplete(tmp_path, f_z4, capsys):
    irreps = corep.default_irreps(f_z4)[:2]
    path = tmp_path / "partial.json"
    io.dump_group_file(path, groups.cyclic_table(4), metric=groups.arc_metric(4),
                       irreps=irreps)
    code = cli.main(["check", "--input", str(path), "--pw"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert "2" in err and "4" in err


def test_cli_truncate(z4_file, capsys):
    code = cli.main(["truncate", "--input", z4_file, "--lambda", "0,1", "--tol", "1e-11"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "dim_sys 3" in out
    # both sides' counit and Podles residuals are printed, below the tolerance given
    found = re.search(r"counit residuals: right (\S+), left (\S+); "
                      r"Podles witnesses: right (\S+), left (\S+)$", out, re.MULTILINE)
    assert found and all(float(value) < 1e-11 for value in found.groups())
    assert float(re.search(r"well-definedness (\S+),", out).group(1)) < 1e-11


def test_cli_bound_closed_form(z4_file, capsys):
    code = cli.main(["bound", "--input", z4_file, "--lambda", "0,1", "--format", "text",
                     "--samples", "20"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    expected = oracles.fejer_truncation_bound(4, (0, 1))
    value = float(out.split("bound_B=")[1].split()[0])
    assert value == pytest.approx(expected, abs=1e-8)


def test_cli_bound_lambda_all_is_zero(z4_file, capsys):
    code = cli.main(["bound", "--input", z4_file, "--lambda", "all", "--format", "text",
                     "--samples", "10"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    value = float(out.split("bound_B=")[1].split()[0])
    assert abs(value) < 1e-9


def test_cli_bound_explicit_vector_normalized(z4_file, capsys):
    code = cli.main(["bound", "--input", z4_file, "--lambda", "0,1", "--state", "explicit",
                     "--vector", "2,0", "--format", "text", "--samples", "10"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "normalized" in out


def test_cli_sweep_csv(z8_file, tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--input", z8_file, "--samples", "30",
                     "--output", str(out_path)])
    assert code == cli.EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 6                      # header + 5 chain levels
    bounds = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(bounds[k + 1] <= bounds[k] + 1e-9 for k in range(len(bounds) - 1))
    assert bounds[-1] == pytest.approx(0.0, abs=1e-8)
    residuals = [float(line.split(",")[cli.CSV_COLUMNS.index("c1_max_residual")]) for line in lines[1:]]
    assert all(r <= 1e-8 for r in residuals)


def test_cli_sweep_deterministic(z8_file, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = cli.main(["sweep", "--input", z8_file, "--samples", "10", "--seed", "7",
                         "--output", str(path)])
        assert code == cli.EXIT_OK

    def strip_runtime(text):
        return ["," .join(line.split(",")[:-1]) for line in text.strip().splitlines()]

    assert strip_runtime(paths[0].read_text()) == strip_runtime(paths[1].read_text())


def test_cli_sweep_c_s3(s3c_file, capsys):
    code = cli.main(["sweep", "--input", s3c_file, "--samples", "25", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    residuals = [float(line.split(",")[cli.CSV_COLUMNS.index("c1_max_residual")]) for line in lines[1:]]
    assert all(r <= 1e-8 for r in residuals)
    bounds = [float(line.split(",")[2]) for line in lines[1:]]
    assert bounds[-1] == pytest.approx(0.0, abs=1e-8)


def test_cli_sweep_bad_chain(z8_file, capsys):
    code = cli.main(["sweep", "--input", z8_file, "--chain", "0,1;0"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "chain" in err


def test_cli_sweep_runs_where_the_disc_refinement_stalls(tmp_path, capsys, monkeypatch):
    # F(Z_6): the arc pair rows plus the translates of e0 + i e1 - e2 - i e3 and their
    # conjugates, a bi-invariant family on which one diameter LP ends at the round cap
    z6 = str(tmp_path / "z6.json")
    io.dump_group_file(z6, groups.cyclic_table(6), metric=groups.arc_metric(6))
    lip = lipnorm.lip_from_metric(io.load_input(z6).algebra)
    translates = np.array([np.roll([1, 1j, -1, -1j, 0, 0], k) for k in range(6)])
    extra = np.vstack([translates, translates.conj()])
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"functionals": io._encode_complex(np.vstack([lip.functionals, extra])),
                                "weights": np.append(lip.weights, np.ones(len(extra))).tolist()}))
    rounds, refine = [], mkdist._refined_lp

    def spy(*args):
        result = refine(*args)
        rounds.append(result[3])
        return result

    monkeypatch.setattr(mkdist, "_refined_lp", spy)
    code = cli.main(["sweep", "--input", z6, "--seminorm", f"file:{path}", "--samples", "5",
                     "--format", "csv"])
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert code == cli.EXIT_OK and len(rows) == 4
    assert all(float(r["diam_lower"]) <= float(r["diam_upper"]) for r in rows)
    assert 80 in rounds


def test_cli_pw(s3c_file, capsys):
    code = cli.main(["pw", "--input", s3c_file])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "complete" in out


def test_cli_custom_seminorm_file(z4_file, tmp_path, capsys):
    # custom polyhedral family equal to the metric family on F(Z_4)
    import cqms.lipnorm as lipnorm_mod
    from cqms import hopf
    g = hopf.function_algebra(groups.cyclic_table(4), metric=groups.arc_metric(4))
    lip = lipnorm_mod.lip_from_metric(g)
    payload = {"functionals": io._encode_complex(lip.functionals),
               "weights": np.asarray(lip.weights).tolist()}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["bound", "--input", z4_file, "--lambda", "0,1",
                     "--seminorm", f"file:{path}", "--format", "text", "--samples", "10"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    value = float(out.split("bound_B=")[1].split()[0])
    assert value == pytest.approx(oracles.fejer_truncation_bound(4, (0, 1)), abs=1e-8)


def test_cli_bound_optimized_not_worse(z8_file, capsys):
    code = cli.main(["bound", "--input", z8_file, "--lambda", "0,1,7", "--format", "text",
                     "--samples", "10"])
    canonical = float(capsys.readouterr().out.split("bound_B=")[1].split()[0])
    code2 = cli.main(["bound", "--input", z8_file, "--lambda", "0,1,7", "--state", "optimized",
                      "--format", "text", "--samples", "10"])
    optimized = float(capsys.readouterr().out.split("bound_B=")[1].split()[0])
    assert code == cli.EXIT_OK and code2 == cli.EXIT_OK
    assert optimized <= canonical + 1e-9


def test_cli_optimized_bound_does_not_read_the_seed(z8_file, tmp_path, capsys):
    # the arc pairs of F(Z_8) plus the 8 translates of e0 + e1 - e2 - e3 (weight 1): a
    # bi-invariant family on which the descent runs; bound_B is one column for every seed,
    # and level 3 is below all that random restarts reached over seeds 0-4
    g = io.load_input(z8_file).algebra
    lip = lipnorm.lip_from_metric(g)
    rows = np.array([np.roll([1, 1, -1, -1, 0, 0, 0, 0], k) for k in range(8)], dtype=complex)
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps({"functionals": io._encode_complex(np.vstack([lip.functionals, rows])),
                                "weights": np.append(lip.weights, np.ones(8)).tolist()}))
    columns = []
    for seed in range(5):
        code = cli.main(["sweep", "--input", z8_file, "--state", "optimized", "--seminorm",
                         f"file:{path}", "--samples", "5", "--seed", str(seed)])
        assert code == cli.EXIT_OK
        columns.append([row["bound_B"] for row in csv.DictReader(capsys.readouterr().out.splitlines())])
    assert all(column == columns[0] for column in columns)
    assert float(columns[0][3]) <= 0.228539937977

def test_run_sweep_config_roundtrip(z8_file):
    loaded = io.load_input(z8_file)
    irreps = loaded.irreps_or_default()
    from cqms import lipnorm as lipnorm_mod
    config = cli.SweepConfig(
        loaded=loaded, irreps=irreps, seminorm=lipnorm_mod.lip_from_metric(loaded.algebra),
        chain=[(0,), (0, 1, 7)], state_mode="canonical", explicit_vector=None,
        seed=3, samples=8)
    rows = cli.run_sweep(config)
    assert len(rows) == 2
    assert rows[0]["dim_sys"] == 1


def test_full_level_row_skips_the_c1_radii(z8_file, monkeypatch):
    # bound_B = 0 at the full level, so c1 = max(lhs1, lhs2) needs no induced Lip-norm
    from types import SimpleNamespace

    from cqms import compress, sampling

    loaded = io.load_input(z8_file)
    g, irreps = loaded.algebra, loaded.irreps_or_default()
    lip = lipnorm.lip_from_metric(g)
    config = cli.SweepConfig(loaded=loaded, irreps=irreps, seminorm=lip,
                             chain=[(0, 1, 7), tuple(range(8))], state_mode="canonical",
                             explicit_vector=None, seed=3, samples=8)
    dec = corep.pw_decompose(g, irreps, tol=1e-10)
    diam = SimpleNamespace(lower=0.0, upper=1.0)
    brackets, calls = lipnorm._radius_brackets, []
    monkeypatch.setattr(lipnorm, "_radius_brackets",
                        lambda *args, **kw: calls.append(1) or brackets(*args, **kw))
    assert cli._bound_row(config, 0, dec, diam)["bound_B"] > 0 and len(calls) == 1
    row = cli._bound_row(config, 1, dec, diam)
    assert row["bound_B"] == 0.0 and len(calls) == 1
    # the batched formula with the radius term, on the row's own samples (seed 3 + 1)
    ts = compress.truncate(g, irreps, range(8), dec=dec)
    alpha, beta = compress.induced_coaction(g, ts, "right"), compress.induced_coaction(g, ts, "left")
    sym = compress.symbol_map(ts, alpha, compress.canonical_symbol_state(g, ts))
    elements = sampling.random_elements(g, np.random.default_rng(4), 8)
    taus = ts.tau(elements)
    coords = ts.expand(taus)
    images = sym(coords)
    lhs1 = hopf.element_norms(g, (images - elements)[:, None, None])
    lhs2 = hopf.spectral_norms(ts.tau(images) - taus)
    excess = lipnorm.induced_lip_excess(lip, beta, coords, lhs2, 0.0, tol=1e-7)
    assert excess == np.max(lhs2)
    assert row["c1_max_residual"] == max(np.max(lhs1 - 0.0 * lip.value(elements)), excess)
    # the stacks are the per-sample maps, stacked
    for a, x, c, b in zip(elements, taus, coords, images):
        np.testing.assert_allclose(x, ts.tau(a), rtol=0, atol=1e-14)
        np.testing.assert_allclose(c, ts.expand(ts.tau(a)), rtol=0, atol=1e-14)
        np.testing.assert_allclose(b, sym(ts.expand(ts.tau(a))), rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", ["F(Z_8)", "C*(S_3)"])
def test_auto_chains_name_irreps_by_character_not_by_file_position(name, tmp_path, capsys):
    # frequency and length levels are read in the finder's order; a file that lists the same
    # irreps in another order gets the same truncations, so the same bound_B column
    if name == "F(Z_8)":
        table, extra = groups.cyclic_table(8), {"metric": groups.arc_metric(8)}
        g = hopf.function_algebra(table)
    else:
        table = groups.s3_table()
        extra = {"length": groups.symmetric_word_length(table, groups.s3_word_generators())}
        g = hopf.group_algebra(table)
    irreps = corep.default_irreps(g)
    columns = []
    for listed in (irreps, [irreps[k] for k in np.random.default_rng(3).permutation(len(irreps))]):
        path = tmp_path / "input.json"
        io.dump_group_file(path, table, irreps=listed, **extra)
        assert cli.main(["sweep", "--input", str(path), "--samples", "5"]) == cli.EXIT_OK
        columns.append([row["bound_B"] for row in csv.DictReader(capsys.readouterr().out.splitlines())])
    assert columns[0] == columns[1]
    # a family of fewer irreps reaches pw_decompose, which rejects it
    io.dump_group_file(path, table, irreps=irreps[:2], **extra)
    assert cli.main(["sweep", "--input", str(path), "--samples", "5"]) == cli.EXIT_VALIDATION


def test_cli_sweeps_f_s4_with_irreps_read_off_the_algebra(tmp_path):
    path, out = tmp_path / "s4.json", tmp_path / "s4.csv"
    io.dump_group_file(str(path), oracles.s4_table(), metric=oracles.s4_transposition_metric())
    assert cli.main(["sweep", "--input", str(path), "--output", str(out)]) == cli.EXIT_OK
    bounds = [float(row["bound_B"]) for row in csv.DictReader(out.read_text().splitlines())]
    assert len(bounds) == 5 and bounds[-1] == 0.0
    assert all(later <= earlier for earlier, later in zip(bounds, bounds[1:]))


def test_cli_check_pw_reads_the_irreps_a_quantum_group_file_leaves_out(tmp_path, capsys):
    algebra, irreps = build_kp8()
    outputs = []
    for name, supplied in (("with.json", irreps), ("without.json", None)):
        io.dump_quantum_group_file(str(tmp_path / name), algebra, supplied)
        assert cli.main(["check", "--pw", "--input", str(tmp_path / name)]) == cli.EXIT_OK
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0][0] != outputs[1][0]           # the algebra line names the file
    assert outputs[0][1:] == outputs[1][1:]


def _strip_runtime(text):
    return [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]


@pytest.mark.parametrize("command", [
    ["bound", "--lambda", "0", "--tol", "1e-3"], ["sweep", "--tol", "1e-3"],
    ["check", "--samples", "5"], ["check", "--format", "text"], ["pw", "--seed", "1"],
    ["pw", "--samples", "5"], ["pw", "--format", "text"],
    ["truncate", "--lambda", "0", "--format", "text"]])
def test_cli_tol_is_rejected_where_unread(z8_file, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command[0], "--input", z8_file, *command[1:]])
    assert exc.value.code == 2


def test_cli_bound_prints_the_one_level_sweep_row(z8_file, capsys):
    for samples in ("20", "150"):      # --samples is used as given, not capped
        code = cli.main(["bound", "--input", z8_file, "--lambda", "0,1,7", "--samples", samples,
                         "--seed", "3"])
        bound_out = capsys.readouterr().out
        code2 = cli.main(["sweep", "--input", z8_file, "--chain", "0,1,7", "--samples", samples,
                          "--seed", "3"])
        sweep_out = capsys.readouterr().out
        assert code == cli.EXIT_OK and code2 == cli.EXIT_OK
        assert _strip_runtime(bound_out) == _strip_runtime(sweep_out)


def test_cli_truncate_uses_tol_as_given(f_z4, tmp_path, capsys):
    comult = np.array(f_z4.comult)
    comult[1, 0, 1] += 3e-11
    path = tmp_path / "bumped.json"
    io.dump_quantum_group_file(str(path), dataclasses.replace(f_z4, comult=comult),
                               corep.default_irreps(f_z4))
    code = cli.main(["truncate", "--input", str(path), "--lambda", "0,1", "--tol", "1e-12"])
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("certification error:")


def _f_z2_payload(dim):
    # F(Z_2) in bare reals: every innermost list has exactly two entries
    g = hopf.function_algebra(groups.cyclic_table(2))
    irreps = [{"dim": 1, "matrices_over_A": pi.u.real.tolist()} for pi in corep.default_irreps(g)]
    return {"dim": dim, "irreps": irreps, **{key: getattr(g, key).real.tolist() for key in (
        "mult", "comult", "unit", "star", "counit", "antipode", "rep")}}


def test_quantum_group_file_in_bare_reals_is_read_by_rank(tmp_path, capsys):
    path = tmp_path / "fz2.json"
    path.write_text(json.dumps(_f_z2_payload(2)))
    g = hopf.function_algebra(groups.cyclic_table(2))
    loaded = io.load_input(str(path)).algebra
    for key in ("mult", "comult", "unit", "star", "counit", "antipode", "rep", "haar"):
        assert np.array_equal(getattr(loaded, key), getattr(g, key)), key
    assert cli.main(["check", "--input", str(path), "--pw"]) == cli.EXIT_OK
    assert "all axioms pass" in capsys.readouterr().out


def test_quantum_group_file_of_the_wrong_dimension_exits_2(tmp_path, capsys):
    path = tmp_path / "fz2_dim3.json"
    path.write_text(json.dumps(_f_z2_payload(3)))
    code = cli.main(["check", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert err.startswith("error: ") and "'mult'" in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["dim-not-an-integer", "ragged-metric", "ragged-length"])
def test_cli_malformed_structure_files_exit_2(tmp_path, capsys, case):
    group = {"order": 2, "mult_table": groups.cyclic_table(2).tolist()}
    payload = {"dim-not-an-integer": {**_f_z2_payload(2), "dim": "x"},
               "ragged-metric": {**group, "metric": [[0, 1], [1]]},
               "ragged-length": {**group, "length": [0, [1]]}}[case]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["check", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("case", ["nan-weight", "nan-functional", "infinite-length", "nan-length",
                                  "nan-counit", "infinite-dim"])
def test_cli_non_finite_numbers_in_input_files_exit_2(z4_file, f_z4, tmp_path, capsys, case):
    # Python's json reads NaN and Infinity; every input tensor must be finite
    nan, inf = float("nan"), float("inf")
    lip = lipnorm.lip_from_metric(f_z4)
    funcs, weights = io._encode_complex(lip.functionals), np.asarray(lip.weights).tolist()
    c3 = {"order": 3, "mult_table": groups.cyclic_table(3).tolist()}
    command, payload = {
        "nan-weight": (["bound", "--lambda", "0,1"], {"functionals": funcs, "weights": [nan] + weights[1:]}),
        "nan-functional": (["bound", "--lambda", "0,1"],
                           {"functionals": [[[nan, 0.0]] + funcs[0][1:]] + funcs[1:], "weights": weights}),
        "infinite-length": (["sweep"], {**c3, "length": [0.0, inf, inf]}),
        "nan-length": (["sweep"], {**c3, "length": [0.0, nan, nan]}),
        "nan-counit": (["check"], {**_f_z2_payload(2), "counit": [1.0, nan]}),
        "infinite-dim": (["check"], {**_f_z2_payload(2), "dim": inf}),
    }[case]
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(payload))
    if "functionals" in payload:
        command = command + ["--input", z4_file, "--seminorm", f"file:{path}"]
    else:
        command = command + ["--input", str(path)]
    code = cli.main(command + ([] if command[0] == "check" else ["--samples", "5"]))
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_rejects_a_metric_off_by_a_relative_5e_6(tmp_path, capsys):
    d = groups.arc_metric(8)
    d[0, 1] = d[1, 0] = d[0, 1] * (1 + 5e-6)
    path = tmp_path / "z8_bumped.json"
    io.dump_group_file(path, groups.cyclic_table(8), metric=d)
    code = cli.main(["check", "--input", str(path)])
    assert code == cli.EXIT_VALIDATION
    assert "invariance fails" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["bound", "--lambda", "0,1"], ["sweep"]])
def test_cli_rejects_non_invariant_family(z4_file, f_z4, tmp_path, capsys, command):
    # the metric pair functionals of F(Z_4) with weights that break translation invariance
    lip = lipnorm.lip_from_metric(f_z4)
    payload = {"functionals": io._encode_complex(lip.functionals),
               "weights": [1, 2, 1.5, 1, 2, 1]}
    path = tmp_path / "lopsided.json"
    path.write_text(json.dumps(payload))
    code = cli.main([command[0], "--input", z4_file, *command[1:], "--seminorm", f"file:{path}",
                     "--samples", "5"])
    assert code == cli.EXIT_NUMERIC
    assert "not bi-invariant" in capsys.readouterr().err


def test_cli_sweep_matches_benchmark_reference(z8_file, capsys):
    references = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
    reference = json.loads(references.read_text(encoding="utf-8"))["sweep"]
    code = cli.main(["sweep", "--input", z8_file, "--samples", "5"])
    assert code == cli.EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == reference["lambda_id"]
    for row, ref in zip(rows, reference["bound_B"]):
        # the benchmark's rule: 1e-12 plus one unit in the 12th printed digit
        assert abs(float(row[2]) - ref) <= 1e-12 + 1e-11 * abs(ref)


@pytest.mark.parametrize("case", ["missing-input", "mismatched-shapes", "nonpositive-weight",
                                  "missing-functionals", "wrong-width"])
def test_cli_malformed_input_files_exit_2(z4_file, f_z4, tmp_path, capsys, case):
    lip = lipnorm.lip_from_metric(f_z4)
    funcs, weights = io._encode_complex(lip.functionals), np.asarray(lip.weights).tolist()
    payload = {"mismatched-shapes": {"functionals": funcs, "weights": weights[:-1]},
               "nonpositive-weight": {"functionals": funcs, "weights": [0.0] + weights[1:]},
               "missing-functionals": {"weights": weights},
               "wrong-width": {"functionals": [row[:3] for row in funcs], "weights": weights}}.get(case)
    family = tmp_path / "family.json"
    family.write_text(json.dumps(payload))
    input_file = str(tmp_path / "absent.json") if case == "missing-input" else z4_file
    code = cli.main(["bound", "--input", input_file, "--lambda", "0,1",
                     "--seminorm", f"file:{family}", "--samples", "5"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("vector", ["1,x", "nan,1,0", "0,0,0"])
def test_cli_bound_rejects_a_bad_explicit_vector(z4_file, capsys, vector):
    code = cli.main(["bound", "--input", z4_file, "--lambda", "0,1,3", "--state", "explicit",
                     "--vector", vector, "--samples", "10"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["truncate", "--lambda", "0,1"], ["bound", "--lambda", "0,1"],
    ["bound", "--lambda", "0,1", "--state", "explicit", "--vector", "2,0"], ["sweep"]],
    ids=["truncate", "bound", "bound-explicit", "sweep"])
def test_cli_rejects_samples_below_one(z4_file, capsys, command, samples):
    code = cli.main(command + ["--input", z4_file, f"--samples={samples}"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("command", [["check"], ["truncate", "--lambda", "0,1"]],
                         ids=["check", "truncate"])
def test_cli_rejects_a_tol_that_is_not_finite_and_positive(z4_file, capsys, command, tol):
    code = cli.main(command + ["--input", z4_file, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_output_is_written_only_when_the_command_returns(z4_file, f_z4, tmp_path, capsys):
    previous = tmp_path / "prev.csv"
    previous.write_text("lambda_id\n0\n")
    fresh = tmp_path / "fresh.csv"
    for path in (previous, fresh):
        code = cli.main(["sweep", "--input", z4_file, "--samples", "0", "--output", str(path)])
        assert code == cli.EXIT_CONFIG
    assert previous.read_text() == "lambda_id\n0\n"
    assert not fresh.exists()
    # a FAIL report is a normal return with exit 2, and is written
    mult = np.array(f_z4.mult)
    mult[1, 1, 2] += 1e-3
    broken = tmp_path / "broken.json"
    io.dump_quantum_group_file(str(broken), hopf.FiniteQuantumGroup(
        dim=4, mult=mult, unit=f_z4.unit, star=f_z4.star, comult=f_z4.comult,
        counit=f_z4.counit, antipode=f_z4.antipode, rep=f_z4.rep, haar=f_z4.haar),
        corep.default_irreps(f_z4))
    code = cli.main(["check", "--input", str(broken), "--output", str(fresh)])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().out == ""
    assert "axioms FAIL" in fresh.read_text()


@pytest.mark.parametrize("command, expected", [
    (["check"], cli.EXIT_VALIDATION),
    (["truncate", "--lambda", "0,1"], cli.EXIT_NUMERIC),
    (["bound", "--lambda", "0,1", "--samples", "5"], cli.EXIT_NUMERIC),
    (["sweep", "--samples", "5"], cli.EXIT_NUMERIC)], ids=["check", "truncate", "bound", "sweep"])
def test_cli_singular_antipode_fails_without_a_traceback(f_z4, tmp_path, capsys, command, expected):
    antipode = np.array(f_z4.antipode)
    antipode[1] = 0.0
    path = tmp_path / "singular.json"
    io.dump_quantum_group_file(str(path), hopf.FiniteQuantumGroup(
        dim=4, mult=f_z4.mult, unit=f_z4.unit, star=f_z4.star, comult=f_z4.comult,
        counit=f_z4.counit, antipode=antipode, rep=f_z4.rep, haar=f_z4.haar),
        corep.default_irreps(f_z4))
    lip = lipnorm.lip_from_metric(f_z4)           # a quantum-group file carries no metric
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"functionals": io._encode_complex(lip.functionals),
                                  "weights": np.asarray(lip.weights).tolist()}))
    code = cli.main(command + ["--input", str(path), "--seminorm", f"file:{family}"])
    captured = capsys.readouterr()
    assert code == expected
    assert "Traceback" not in captured.err
    if expected == cli.EXIT_VALIDATION:
        assert "podles_right                 inf" in captured.out
        assert "podles_left                  inf" in captured.out
        assert "axioms FAIL" in captured.out
    else:
        assert captured.err.startswith("certification error:") and captured.err.count("\n") == 1
        assert "Podles inf" in captured.err


def test_sweep_resolves_few_c1_samples(z8_file, tmp_path, monkeypatch):
    # each Hermitian eigensolve counted once, stacked or not; 9,364 before the c1 samples
    # were pruned across the row and the arc grid was staged.  The Gram eigensolves of
    # hopf.spectral_norms stand in for the SVDs the norms used to take, which this never
    # counted, so they are left out.
    original, solves = np.linalg.eigvalsh, []

    def counted(a, *args, **kw):
        a = np.asarray(a)
        if sys._getframe(1).f_code is not hopf.spectral_norms.__code__:
            solves.append(int(np.prod(a.shape[:-2], dtype=int)))
        return original(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--input", z8_file, "--seed", "1", "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 6
    assert 0 < sum(solves) <= 2000


def test_batched_draws_consume_the_generator_like_single_draws(z8_file):
    # one (k, 2, n) draw gives the same elements, and leaves the generator in the same state,
    # as k pairs of size-n draws; the sweep rows' later draws depend on it
    from cqms import sampling

    g = io.load_input(z8_file).algebra
    batched, single = np.random.default_rng(5), np.random.default_rng(5)
    elements = sampling.random_elements(g, batched, 7)
    for a in elements:
        assert np.array_equal(a, single.normal(size=8) + 1j * single.normal(size=8))
    assert batched.normal() == single.normal()
