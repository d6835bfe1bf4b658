"""The command line on arbitrary JSON input.

Every file-reading subcommand gets either an arbitrary JSON value or a
valid document with one value, anywhere inside it, replaced by an
arbitrary one.  Each run must exit 2 with exactly one stderr line
``error: <file>: ...`` naming an input file (``verify`` names its second
file when the two pairs live over different bases), or exit 0 or 1 with
nothing on stderr.  No run may raise, and no message may carry Python's own wording
for a wrongly shaped document (the loaders' TypeError, AttributeError and
IndexError messages).

Drawn integers stay small, since a count such as ``"vertices"`` sizes
the matrices built from the document and one just under the cap would
take seconds.  A few boundary integers are sampled as they are: one past
the cell cap ``MAX_CELLS``, +-10^9 and 2^63, which must be refused or
used without a crash.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tdual.bundles import BundleDescriptor
from tdual.cli import main
from tdual.complexes import MAX_CELLS, DeltaComplex, LocalSystem
from tdual.courant import standard_contexts
from tdual.tduality import FluxPair, construct_tdual

# Fragments of CPython's messages for subscripting, attribute access,
# iteration, indexing and conversion on values of the wrong type.
PYTHON_WORDING = (
    "Traceback", "indices must be", "not subscriptable", "has no attribute",
    "not iterable", "list index out of range", "tuple index out of range",
    "string index out of range", "unhashable", "object is not",
    "argument must be", "unsupported operand", "not supported between",
    "cannot be interpreted", "NoneType", "takes no",
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6)
    | st.sampled_from([MAX_CELLS + 1, 10 ** 9, -10 ** 9, 2 ** 63])
    | st.floats(-4, 4, allow_nan=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12)


def _sphere_pair() -> FluxPair:
    """The boundary of the 3-simplex: a small base with H^2 = Z."""
    x = DeltaComplex(4, (
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
        ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
    ))
    bundle = BundleDescriptor(x, LocalSystem(x, (1,) * 6), (1, 0, 0, 0))
    return FluxPair(bundle, (), (0, 1, 0, 0))


PAIR = _sphere_pair()
DUAL = construct_tdual(PAIR)[0]
VALID = {
    "complex": PAIR.bundle.base.to_json_dict(),
    "signs": PAIR.bundle.xi.to_json_dict(),
    "bundle": PAIR.bundle.to_json_dict(),
    "pair": PAIR.to_json_dict(),
    "dual": DUAL.to_json_dict(),
    "context": standard_contexts()[1][1].to_json_dict(),
}

# (argv with F for the fuzzed file and other names for valid files,
#  the valid document the fuzzed file is drawn around)
COMMANDS = {
    "cohomology": (["cohomology", "F"], "complex"),
    "cohomology-local-system": (["cohomology", "complex", "--local-system", "F"], "signs"),
    "bundle-cohomology": (["bundle-cohomology", "F", "--coeff", "xi"], "bundle"),
    "tdual": (["tdual", "F"], "pair"),
    "verify-first": (["verify", "F", "dual"], "pair"),
    "verify-second": (["verify", "pair", "F"], "dual"),
    "ktheory": (["ktheory", "F"], "pair"),
    "courant-check": (["courant-check", "F", "--sections", "1"], "context"),
}


def _paths(doc, prefix=()):
    """Every path into a JSON document, the empty path first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return out


@st.composite
def documents(draw, valid):
    if draw(st.booleans()):
        return draw(JSON)
    path = draw(st.sampled_from(list(_paths(valid))))
    return _replaced(valid, path, draw(JSON))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_arbitrary_json_gives_one_error_line_or_a_clean_exit(command):
    template, kind = COMMANDS[command]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=documents(VALID[kind]))
    def check(doc):
        with tempfile.TemporaryDirectory() as tmp:
            files = {name: Path(tmp) / f"{name}.json" for name in VALID}
            for name, path in files.items():
                path.write_text(json.dumps(VALID[name]))
            fuzzed = Path(tmp) / "F.json"
            fuzzed.write_text(json.dumps(doc))
            files["F"] = fuzzed
            argv = [str(files[a]) if a in files else a for a in template]
            code, out, err = run_cli(argv)
        assert not any(w in err for w in PYTHON_WORDING), err
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1, err
            mismatch = argv[0] == "verify" and \
                lines[0] == f"error: {argv[2]}: pairs live over different bases"
            assert lines[0].startswith(f"error: {fuzzed}: ") or mismatch, err
            assert out == ""
        else:
            assert code in (0, 1) and err == "", (code, err)

    check()


def test_verify_names_the_second_file_for_pairs_over_different_bases(tmp_path):
    first, second = tmp_path / "pair.json", tmp_path / "other.json"
    first.write_text(json.dumps(VALID["pair"]))
    second.write_text(json.dumps(_replaced(VALID["dual"], ("bundle", "base", "vertices"), 5)))
    code, out, err = run_cli(["verify", str(first), str(second)])
    assert (code, out) == (2, "")
    assert err == f"error: {second}: pairs live over different bases\n"


def test_deeply_nested_json_is_an_input_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run_cli(["tdual", str(path)]) == \
        (2, "", f"error: {path}: invalid JSON: nested too deeply\n")
