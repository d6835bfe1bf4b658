import json
from dataclasses import replace

import pytest

from tdual import catalog, cli, exactalg, pipeline
from tdual.catalog import build_bundle, build_flux, circle, sigma, space
from tdual.cli import main
from tdual.complexes import MAX_CELLS
from tdual.courant import MAX_BASE_DIM, MAX_SECTIONS, EquivariantContext, standard_contexts
from tdual.exactalg import FGAbelianGroup as FG
from tdual.fixtures import klein_fixtures
from tdual.fourier import Form, FourierScalar
from tdual.pipeline import run_fixtures, run_pipeline


@pytest.fixture()
def klein_pair_file(tmp_path):
    info = circle()
    pair = build_flux(build_bundle(info, info.xi(), 0), 0)
    path = tmp_path / "pair.json"
    path.write_text(pair.to_json())
    return path


def test_cohomology_command(tmp_path, capsys):
    info = sigma(1)
    space_path = tmp_path / "space.json"
    space_path.write_text(info.complex.to_json())
    ls_path = tmp_path / "ls.json"
    ls_path.write_text(json.dumps(info.xi().to_json_dict()))
    assert main(["cohomology", str(space_path)]) == 0
    out = capsys.readouterr().out
    assert "Z^2" in out
    assert main(["cohomology", str(space_path), "--local-system", str(ls_path)]) == 0
    out = capsys.readouterr().out
    assert "Z/2" in out


def test_cohomology_command_prints_groups_without_generators(tmp_path, capsys, monkeypatch):
    """H^0 of n bare vertices is Z^n; printing it builds no generators,
    which would be n vectors of length n."""
    built = []
    generators = exactalg._generators
    monkeypatch.setattr(exactalg, "_generators",
                        lambda d_in, d_out: built.append(d_in.rows) or generators(d_in, d_out))
    path = tmp_path / "vertices.json"
    path.write_text('{"vertices": 2000}')
    assert main(["cohomology", str(path)]) == 0
    assert capsys.readouterr().out == "H^*: Z^2000\n"
    assert built == []


def test_oversized_inputs_exit_2_before_any_matrix_is_built(tmp_path, capsys):
    """A file of a few bytes may not ask for a 10^9-row matrix: the loader
    caps the vertices and the simplices of each dimension at MAX_CELLS."""
    path = tmp_path / "huge.json"
    path.write_text('{"vertices": 1000000000}')
    assert_input_error(capsys, ["cohomology", str(path)], path, f"at most {MAX_CELLS}")
    path.write_text(json.dumps({"base": {"vertices": 10 ** 9}, "xi": {"edge_signs": []},
                                "euler": {"values": []}}))
    assert_input_error(capsys, ["bundle-cohomology", str(path)], path, f"at most {MAX_CELLS}")
    path.write_text(json.dumps({"vertices": 1, "simplices": {"1": [[0, 0]] * (MAX_CELLS + 1)}}))
    assert_input_error(capsys, ["cohomology", str(path)], path, f"at most {MAX_CELLS}")


def test_bundle_cohomology_command(tmp_path, capsys):
    info = circle()
    bundle = build_bundle(info, info.xi(), 0)
    path = tmp_path / "bundle.json"
    path.write_text(bundle.to_json())
    assert main(["bundle-cohomology", str(path)]) == 0
    assert "Z/2" in capsys.readouterr().out
    assert main(["bundle-cohomology", str(path), "--coeff", "xi"]) == 0
    assert "Z + Z/2" in capsys.readouterr().out


def test_tdual_and_verify_commands(tmp_path, capsys, klein_pair_file):
    assert main(["tdual", str(klein_pair_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    dual_path = tmp_path / "dual.json"
    dual_path.write_text(json.dumps(payload["dual"]))
    assert main(["verify", str(klein_pair_file), str(dual_path)]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "FAIL" not in out


def test_verify_rejects_non_dual(tmp_path, capsys):
    info = sigma(1)
    p0 = build_flux(build_bundle(info, info.xi(), 0), 0)
    p1 = build_flux(build_bundle(info, info.xi(), 0), 1)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(p1.to_json())
    b.write_text(p0.to_json())
    assert main(["verify", str(a), str(b)]) == 1


def test_ktheory_command(capsys, klein_pair_file):
    assert main(["ktheory", str(klein_pair_file)]) == 0
    out = capsys.readouterr().out
    assert "K^0 = Z + Z/2" in out and "K^1 = Z" in out
    assert main(["ktheory", str(klein_pair_file), "--xi-twist"]) == 0
    out = capsys.readouterr().out
    assert "K^0 = Z" in out and "K^1 = Z + Z/2" in out


def test_ktheory_command_reports_an_ambiguous_extension(tmp_path, capsys):
    info = sigma(1)
    path = tmp_path / "pair.json"
    path.write_text(build_flux(build_bundle(info, info.xi(), 0), 1).to_json())
    assert main(["ktheory", str(path), "--xi-twist"]) == 0
    out = capsys.readouterr().out
    assert "K^1 = extension of Z + Z/2 by Z: Z^2 or Z^2 + Z/2\n" in out


def test_tables_command(capsys):
    assert main(["tables", "klein"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert main(["tables", "sigma", "--g", "1", "--j", "0", "--k", "1",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert main(["tables", "crosscap", "--n", "1", "--j", "1", "--k", "0",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert '"K0"' in out
    for argv, reason in ((["sigma", "--g", "0"], "genus must be >= 1"),
                         (["crosscap", "--n", "-1"], "need at least one crosscap"),
                         (["sigma", "--g", "2", "--j", "5"], "j must lie in range 0..1"),
                         (["klein", "--k", "5"], "flux group is trivial; only k = 0 exists"),
                         (["sigma"], "--g is required for sigma"),
                         (["crosscap", "--j", "1"], "--n is required for crosscap")):
        assert main(["tables"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {reason}\n"


def test_tables_reject_surfaces_past_the_cell_cap(capsys, monkeypatch):
    """sigma(g) has 24g edges and crosscap(n) 12n; past MAX_CELLS, the cap
    on a loaded complex's cells of one dimension, the catalog exits 2
    before it builds the polygon word."""
    monkeypatch.setattr(catalog, "_surface_from_word", None)
    for argv, reason in (
            (["sigma", "--g", "4167"], "genus must be at most 4166: sigma(4167) has 100008 edges"),
            (["sigma", "--g", "100000000"],
             "genus must be at most 4166: sigma(100000000) has 2400000000 edges"),
            (["crosscap", "--n", "8334"],
             "crosscap count must be at most 8333: crosscap(8334) has 100008 edges")):
        assert main(["tables"] + argv + ["--j", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {reason}, more than complexes.MAX_CELLS = {MAX_CELLS}\n"


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("j", [-3, -2, -1])
@pytest.mark.parametrize("k", [-3, -2, -1, 0])
def test_crosscap_tables_read_negative_indices(capsys, n, j, k):
    """The tables hold for j and k below zero: -j times a generator has
    the same quotient as j."""
    assert main(["tables", "crosscap", "--n", str(n), "--j", str(j), "--k", str(k)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_fixtures_command_subset(capsys):
    assert main(["fixtures", "--only", "klein"]) == 0
    out = capsys.readouterr().out
    assert "4/4 fixtures passed" in out
    assert main(["fixtures"]) == 2  # requires --all or --only


def test_courant_check_command(tmp_path, capsys):
    name, ctx = standard_contexts()[0]
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(ctx.to_json_dict()))
    assert main(["courant-check", str(path), "--sections", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_pipeline_reports_are_deterministic():
    r1 = run_pipeline("sigma", 1, 0, 1)
    r2 = run_pipeline("sigma", 1, 0, 1)
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == \
        json.dumps(r2.to_json_dict(), sort_keys=True)
    assert r1.ok


def test_builders_are_deterministic():
    info1 = space("sigma", g=2)
    info2 = space("sigma", g=2)
    b1 = build_bundle(info1, info1.xi(), 1)
    b2 = build_bundle(info2, info2.xi(), 1)
    assert b1.to_json() == b2.to_json()
    p1 = build_flux(b1, 1)
    p2 = build_flux(b2, 1)
    assert p1.to_json() == p2.to_json()


def test_klein_fixture_values():
    res = run_fixtures(klein_fixtures())
    assert all(r.ok for r in res)


# ---------------------------------------------------------------------------
# Bad input: one error line on stderr and exit status 2
# ---------------------------------------------------------------------------

def context_file(tmp_path, edit):
    obj = standard_contexts()[1][1].to_json_dict()
    edit(obj)
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(obj))
    return path


def first_frequency(value):
    """An edit setting the first frequency entry of the potential's waves
    to +-value."""
    def edit(obj):
        for wave in obj["a"][0]["waves"]:
            wave["freq"][0] = value if wave["freq"][0] > 0 else -value
    return edit


def assert_input_error(capsys, argv, path, reason):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: ")
    assert reason in lines[0]


@pytest.mark.parametrize("command", ["cohomology", "bundle-cohomology", "tdual",
                                     "ktheory", "courant-check", "verify"])
def test_missing_and_malformed_files_exit_2(tmp_path, capsys, klein_pair_file, command):
    rest = [str(klein_pair_file)] if command == "verify" else []
    missing = tmp_path / "missing.json"
    assert_input_error(capsys, [command, str(missing)] + rest, missing,
                       "No such file or directory")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert_input_error(capsys, [command, str(broken)] + rest, broken, "invalid JSON")


def test_second_input_file_is_checked_too(tmp_path, capsys, klein_pair_file):
    missing = tmp_path / "other.json"
    assert_input_error(capsys, ["verify", str(klein_pair_file), str(missing)],
                       missing, "No such file or directory")
    info = sigma(1)
    space_path = tmp_path / "space.json"
    space_path.write_text(info.complex.to_json())
    ls_path = tmp_path / "ls.json"
    ls_path.write_text(json.dumps({"edge_signs": [1]}))
    assert_input_error(capsys, ["cohomology", str(space_path), "--local-system",
                                str(ls_path)], ls_path, "one sign per edge")


def test_courant_check_rejects_a_non_real_spectrum(tmp_path, capsys):
    def non_real(obj):
        obj["a"][0]["waves"] = [{"freq": [1, 0], "re": "1", "im": "1"}]
    path = context_file(tmp_path, non_real)
    assert_input_error(capsys, ["courant-check", str(path)], path, "reality violated")


def test_courant_check_rejects_a_non_positive_section_count(tmp_path, capsys):
    path = context_file(tmp_path, lambda obj: None)
    for count in ("0", "-2"):
        assert main(["courant-check", str(path), "--sections", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --sections must be at least 1, not {count}\n"


def test_courant_check_rejects_a_section_count_above_the_cap(tmp_path, capsys):
    """Checked before the context is read: the file need not exist."""
    count = MAX_SECTIONS + 1
    assert main(["courant-check", str(tmp_path / "missing.json"), "--sections", str(count)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --sections must be at most {MAX_SECTIONS}, not {count}\n"
    path = context_file(tmp_path, lambda obj: None)
    assert main(["courant-check", str(path), "--sections", str(count)]) == 2
    assert capsys.readouterr().err == captured.err


def test_courant_check_rejects_invalid_contexts(tmp_path, capsys):
    def non_involutive(obj):
        obj["deck"]["A"] = [[1, 1], [0, 1]]

    def invariant_potential(obj):
        obj["deck"]["b"] = ["0", "0"]

    def missing_dim(obj):
        del obj["dim"]

    def setter(key, value):
        return lambda obj: (obj["deck"] if key == "b" else obj).update({key: value})

    def dx(key):
        return lambda obj: obj["a"][0].update({"dx": key})

    def short_frequency(obj):
        obj["a"][0]["waves"][0]["freq"] = [1]

    for edit, reason in ((non_involutive, "involution"),
                         (invariant_potential, "anti-invariant"),
                         (missing_dim, "missing field 'dim'"),
                         (setter("b", ["1/2"]), "deck shift must have 2 entries, not 1"),
                         (setter("b", ["1/2", "0", "0"]), "deck shift must have 2 entries, not 3"),
                         (setter("dim", 0), "base dimension must be at least 1, not 0"),
                         (setter("dim", -1), "base dimension must be at least 1, not -1"),
                         (setter("dim", MAX_BASE_DIM + 1),
                          f"base dimension must be at most {MAX_BASE_DIM}, not {MAX_BASE_DIM + 1}"),
                         (setter("dim", 10 ** 9), "base dimension must be at most"),
                         (dx([3]), "coordinate index out of range"),
                         (dx([1, 0]), "component keys must be sorted and distinct"),
                         (dx([1, 1]), "component keys must be sorted and distinct"),
                         (short_frequency, "frequency arity mismatch"),
                         (first_frequency(2 ** 31), "frequency entries must be below 2**31")):
        path = context_file(tmp_path, edit)
        assert_input_error(capsys, ["courant-check", str(path)], path, reason)


def test_courant_check_rejects_products_past_the_frequency_cap(tmp_path, capsys):
    """The potential's frequency 2**31 - 1 is within the cap, so the
    context loads; its products with the sections' waves of frequency 1
    pass the cap during the checks, which is bad input too."""
    path = context_file(tmp_path, first_frequency(2 ** 31 - 1))
    EquivariantContext.from_json_dict(json.loads(path.read_text()))
    assert_input_error(capsys, ["courant-check", str(path), "--sections", "1"], path,
                       "frequency entries must be below 2**31")


def test_rejected_flux_pair_exits_2_and_failed_check_exits_1(tmp_path, capsys,
                                                             klein_pair_file):
    obj = json.loads(klein_pair_file.read_text())
    obj["bundle"]["euler"]["values"] = obj["bundle"]["euler"]["values"] + [0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    for command in (["tdual", str(bad)], ["ktheory", str(bad)],
                    ["verify", str(klein_pair_file), str(bad)]):
        assert_input_error(capsys, command, bad, "euler cochain has wrong length")
    info = sigma(1)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(build_flux(build_bundle(info, info.xi(), 0), 1).to_json())
    b.write_text(build_flux(build_bundle(info, info.xi(), 0), 0).to_json())
    assert main(["verify", str(a), str(b)]) == 1
    assert capsys.readouterr().err == ""


def sphere_pair():
    """A flux pair over the boundary of a tetrahedron, as JSON."""
    base = {"vertices": 4,
            "simplices": {"1": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
                          "2": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}}
    return {"bundle": {"base": base, "xi": {"edge_signs": [1] * 6},
                       "euler": {"values": [0] * 4}},
            "H3": [], "Fhat": [0, 1, 0, 0]}


def test_loaders_reject_non_integers(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(sphere_pair()))
    assert main(["tdual", str(path)]) == 0
    capsys.readouterr()

    def vertices(obj):
        obj["bundle"]["base"]["vertices"] = 4.7

    def fhat(obj):
        obj["Fhat"][1] = 1.9

    def edge_sign(obj):
        obj["bundle"]["xi"]["edge_signs"][2] = True

    def simplex(obj):
        obj["bundle"]["base"]["simplices"]["1"][0][1] = 1.0

    def euler(obj):
        obj["bundle"]["euler"]["values"][0] = False

    def all_three(obj):
        vertices(obj), fhat(obj), edge_sign(obj)

    for edit, reason in ((vertices, "vertices: expected an integer, not 4.7"),
                         (fhat, "Fhat: expected an integer, not 1.9"),
                         (edge_sign, "edge_signs: expected an integer, not true"),
                         (simplex, "simplices: expected an integer, not 1.0"),
                         (euler, "euler: expected an integer, not false"),
                         (all_three, "expected an integer")):
        obj = sphere_pair()
        edit(obj)
        path.write_text(json.dumps(obj))
        assert_input_error(capsys, ["tdual", str(path)], path, reason)


def test_context_loader_rejects_non_integers(tmp_path, capsys):
    def dx(obj):
        obj["a"][0]["dx"] = [0.9]

    def dim_float(obj):
        obj["dim"] = 2.7

    def dim_bool(obj):
        obj["dim"] = True

    def deck_entry(obj):
        obj["deck"]["A"][0][0] = 1.0

    def freq(obj):
        obj["a"][0]["waves"][0]["freq"][0] = 1.0

    for edit, reason in ((dx, "dx: expected an integer, not 0.9"),
                         (dim_float, "dim: expected an integer, not 2.7"),
                         (dim_bool, "dim: expected an integer, not true"),
                         (deck_entry, "deck.A: expected an integer, not 1.0"),
                         (freq, "freq: expected an integer, not 1.0")):
        path = context_file(tmp_path, edit)
        assert_input_error(capsys, ["courant-check", str(path)], path, reason)


def test_loaders_reject_complexes_systems_and_pairs_that_do_not_fit(tmp_path, capsys):
    """A complex with a gap in its simplex dimensions or an edge of three
    vertices, a sign that is not +-1, an Euler cochain that is not closed
    (over a 3-simplex, which has a 3-cochain to see it) and a flux of the
    wrong length exit 2."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"vertices": 3, "simplices": {"2": [[0, 1, 2]]}}))
    assert_input_error(capsys, ["cohomology", str(path)], path,
                       "simplex dimensions must be contiguous from 1")
    path.write_text(json.dumps({"vertices": 3, "simplices": {"1": [[0, 1, 2]]}}))
    assert_input_error(capsys, ["cohomology", str(path)], path,
                       "simplex (0, 1, 2) has wrong arity for dimension 1")
    space_path = tmp_path / "space.json"
    space_path.write_text(sigma(1).complex.to_json())
    signs = [1] * sigma(1).complex.count(1)
    signs[0] = 2
    path.write_text(json.dumps({"edge_signs": signs}))
    assert_input_error(capsys, ["cohomology", str(space_path), "--local-system", str(path)],
                       path, "signs must be +-1")
    simplex = {"vertices": 4,
               "simplices": {"1": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
                             "2": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
                             "3": [[0, 1, 2, 3]]}}
    path.write_text(json.dumps({"base": simplex, "xi": {"edge_signs": [1] * 6},
                                "euler": {"values": [1, 0, 0, 0]}}))
    assert_input_error(capsys, ["bundle-cohomology", str(path)], path,
                       "euler cochain is not closed")
    pair = sphere_pair()
    pair["Fhat"] = pair["Fhat"][:-1]
    path.write_text(json.dumps(pair))
    assert_input_error(capsys, ["tdual", str(path)], path,
                       "flux component lengths do not match the base")


def context_json(d, a=None, fhat=None, h3=None, b=None):
    """A context over T^d with the half-shift deck, forms given as Form."""
    forms = {"a": a, "Fhat": fhat, "H3": h3}
    return {"dim": d, "deck": {"A": [[int(i == j) for j in range(d)] for i in range(d)],
                               "b": b or ["1/2"] + ["0"] * (d - 1)},
            **{key: w.to_json_list() if w else [] for key, w in forms.items()}}


def test_courant_check_rejects_forms_that_break_the_context(tmp_path, capsys):
    """Each check of a loaded context fails on one file: the deck, the
    degrees and directions of the potentials and of H3, its invariance and
    closedness, and the closedness of the total flux (dtheta + a) ^ dahat + H3,
    which fails when da ^ dahat != 0."""
    def cos(d, j, *freq):
        return Form.dx(d + 1, j, FourierScalar.cos_wave(freq))

    def three_form(d, *freq):
        return Form.dx(d + 1, 0).wedge(Form.dx(d + 1, 1)).wedge(cos(d, 2, *freq))

    def deck(obj):
        obj["deck"]["A"] = [[1]]

    cases = [
        (deck, context_json(2), "deck matrix must be d x d"),
        (None, context_json(2, b=["1/3", "0"]), "deck shift must be half-integral"),
        (None, context_json(2, a=cos(2, 0, 1, 0).wedge(Form.dx(3, 1))), "a must be a 1-form"),
        (None, context_json(2, a=cos(2, 2, 1, 0)), "a must be a base form"),
        (None, context_json(2, h3=cos(2, 0, 0, 1)), "h3 must be a base 3-form"),
        (None, context_json(3, h3=three_form(3, 1, 0, 0)), "h3 must be invariant"),
        (None, context_json(4, h3=three_form(4, 0, 0, 0, 1)), "h3 must be closed"),
        (None, context_json(4, a=cos(4, 1, 1, 0, 1, 0), fhat=cos(4, 2, 1, 0, 0, 1).d()),
         "total flux 3-form is not closed"),
    ]
    path = tmp_path / "ctx.json"
    for edit, obj, reason in cases:
        if edit:
            edit(obj)
        path.write_text(json.dumps(obj))
        assert_input_error(capsys, ["courant-check", str(path)], path, reason)


def perturbed(fixtures):
    """The fixtures with the first one's expected groups changed."""
    first = fixtures[0]
    return [replace(first, expected=first.expected + (FG(1),))] + list(fixtures[1:])


def test_fixture_failures_are_printed_and_exit_1(capsys, monkeypatch):
    """One perturbed fixture expectation: ``fixtures`` prints its FAIL block
    and ``tables`` its fixture-diff line, and both exit 1."""
    monkeypatch.setattr(cli, "all_fixtures", lambda: iter(perturbed(klein_fixtures())))
    assert main(["fixtures", "--only", "klein"]) == 1
    out = capsys.readouterr().out.splitlines()
    first = klein_fixtures()[0]
    at = out.index(f"[FAIL] {first.label()}")
    assert out[at + 1] == f"        expected {[str(g) for g in first.expected + (FG(1),)]}"
    assert out[at + 2] == f"        got      {[str(g) for g in first.expected]}"
    assert out[-1] == f"{len(klein_fixtures()) - 1}/{len(klein_fixtures())} fixtures passed"
    monkeypatch.setattr(pipeline, "klein_fixtures", lambda: perturbed(klein_fixtures()))
    assert main(["tables", "klein"]) == 1
    out = capsys.readouterr().out
    assert f"## Fixture diffs: 1 failure(s) out of {len(klein_fixtures())}" in out
    assert f"- {first.label()}: expected " in out
    assert out.rstrip().endswith("overall: FAIL")
