import json

import numpy as np
import pytest

from schemewalk import (
    ValidationError,
    build_grassmann,
    build_group_scheme,
    build_johnson,
    builtin_fusion_system,
    cyclic_fusion_system,
    decompose,
    groups,
    intersection_numbers,
)
from schemewalk.serialize import (
    decode_matrix,
    decomposition_to_jsonable,
    encode_matrix,
    from_jsonable,
    load,
    loads,
    save,
    to_jsonable,
)

RNG = np.random.default_rng(7)


def roundtrip(kind, obj):
    return from_jsonable(kind, json.loads(json.dumps(to_jsonable(kind, obj))))


def test_scheme_roundtrip_exact():
    for s in (build_group_scheme(groups.cyclic(5)), build_johnson(5, 2), build_grassmann(2, 3, 1)):
        back = roundtrip("scheme", s)
        assert back.n == s.n and back.d == s.d
        assert np.array_equal(back.relation, s.relation)


def test_scheme_load_validates_axioms():
    s = build_johnson(4, 2)
    data = to_jsonable("scheme", s)
    data["relation"][0][0] = 1
    with pytest.raises(ValidationError, match="axiom"):
        from_jsonable("scheme", data)
    # validation can be bypassed for diagnostic loads
    loaded = from_jsonable("scheme", data, validate=False)
    assert loaded.relation[0][0] == 1


J42 = to_jsonable("scheme", build_johnson(4, 2))
Z2 = to_jsonable("fusion-system", cyclic_fusion_system(2))
# the class index of (0, 1) plus one half, which a cast to int would drop
HALF = [list(row) for row in J42["relation"]]
HALF[0][1] += 0.5


@pytest.mark.parametrize("kind,data", [
    ("scheme", {**J42, "relation": HALF}),
    ("scheme", {**J42, "relation": [[0, 1]] + J42["relation"][1:]}),
    ("scheme", {**J42, "relation": "abc"}),
    ("scheme", {**J42, "relation": [["0"] * 6] * 6}),
    ("scheme", {**J42, "n": "6"}),
    ("scheme", {**J42, "d": 2.0}),
    ("scheme", {**J42, "labels": 3}),
    ("tensor", {"d": 1, "entries": [[[1, 0], [0, 1]], [[0, 1]]]}),
    ("tensor", {"d": 1, "entries": [[["a", 0], [0, 1]], [[0, 1], [1, 0]]]}),
    ("tensor", {"d": "1", "entries": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}),
    ("cayley", {"order": 1, "cayley": 5}),
    ("cayley", {"order": 2, "cayley": [[0, 1.7], [1, 0]]}),
    ("cayley", {"order": 2, "cayley": [[0, 1], [1]]}),
    ("cayley", {"order": 2.0, "cayley": [[0, 1], [1, 0]]}),
    ("fusion-system", {**Z2, "labels": "1g"}),
    ("fusion-system", {**Z2, "N": [[[1, 0], [0, 1]], [[0, 1]]]}),
    ("fusion-system", {**Z2, "N": [[[1, 0], [0, 1]], [[0, 1.7], [1, 0]]]}),
    ("fusion-system", {**Z2, "F": [[1.0]]}),
    ("fusion-system", {**Z2, "F": {"1,1,x,1": [[1.0]]}}),
    ("fusion-system", {**Z2, "R": "1,1,0"}),
    ("fusion-system", {**Z2, "R": {"1,1,0": ["a", 0]}}),
    ("fusion-system", {**Z2, "twist": 5}),
    ("fusion-system", {**Z2, "twist": [1, [0, 5]]}),
    ("scheme", {"n": 2, "d": 10**7, "relation": [[0, 1], [1, 0]]}),
    ("scheme", {"n": 1, "d": 10**12, "relation": [[0]]}),
])
def test_malformed_json_is_a_validation_error(kind, data):
    with pytest.raises(ValidationError):
        from_jsonable(kind, data)
    with pytest.raises(ValidationError):
        from_jsonable(kind, data, validate=False)


def test_cayley_roundtrip():
    for g in (groups.cyclic(6), groups.quaternion(), groups.symmetric(3)):
        back = roundtrip("cayley", g)
        assert back.cayley == g.cayley
        assert back.name == g.name


def test_cayley_rejects_inconsistent_order():
    g = groups.cyclic(3)
    data = to_jsonable("cayley", g)
    data["order"] = 4
    with pytest.raises(ValidationError):
        from_jsonable("cayley", data)


def test_matrix_roundtrips():
    real = RNG.normal(size=(3, 4))
    assert np.array_equal(roundtrip("matrix", real), real)

    cpx = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    back = roundtrip("matrix", cpx)
    assert back.dtype.kind == "c"
    assert np.array_equal(back, cpx)

    ints = RNG.integers(-5, 5, size=(4, 4))
    back = roundtrip("matrix", ints)
    assert back.dtype == np.int64
    assert np.array_equal(back, ints)


def test_matrix_float_precision_is_exact():
    vals = np.array([[np.pi, 1 / 3], [np.sqrt(2), 1e-17]])
    back = roundtrip("matrix", vals)
    assert np.array_equal(back, vals)  # binary-identical through repr


def test_encode_decode_matrix_complex_pairs():
    m = np.array([[1 + 2j]])
    enc = encode_matrix(m)
    assert enc == [[[1.0, 2.0]]]
    assert np.array_equal(decode_matrix(enc), m)


def test_tensor_roundtrip():
    it = intersection_numbers(build_johnson(4, 2))
    back = roundtrip("tensor", it)
    assert back.dtype == np.int64
    assert np.array_equal(back, it.p)

    arr = RNG.normal(size=(3, 3, 3))
    assert np.array_equal(roundtrip("tensor", arr), arr)


def test_complex_tensor_is_refused():
    # the tensor kind stores real entries only; dropping 2j would not round-trip
    arr = np.ones((2, 2, 2), dtype=np.complex128)
    arr[0, 1, 1] = 1 + 2j
    with pytest.raises(ValidationError, match="real"):
        to_jsonable("tensor", arr)


def test_tensor_shape_validation():
    with pytest.raises(ValidationError):
        from_jsonable("tensor", {"d": 2, "entries": [[[0.0]]]})


def test_fusion_system_roundtrip():
    for fs in (builtin_fusion_system("ising"), builtin_fusion_system("fibonacci"),
               cyclic_fusion_system(4)):
        back = roundtrip("fusion-system", fs)
        assert back.labels == fs.labels
        assert np.array_equal(back.N, fs.N)
        assert set(back.F) == set(fs.F)
        for key in fs.F:
            assert np.array_equal(np.asarray(back.F[key]), np.asarray(fs.F[key]))
        assert set(back.R) == set(fs.R)
        for key in fs.R:
            assert back.R[key] == fs.R[key]
        if fs.twist is None:
            assert back.twist is None
        else:
            assert np.array_equal(np.asarray(back.twist), np.asarray(fs.twist))


def test_distribution_roundtrip_and_validation():
    d = RNG.dirichlet(np.ones(4))
    assert np.array_equal(roundtrip("distribution", d), d)
    with pytest.raises(ValidationError):
        from_jsonable("distribution", [0.5, 0.6])
    with pytest.raises(ValidationError):
        from_jsonable("distribution", [-0.1, 1.1])


def test_unknown_kind():
    with pytest.raises(ValidationError):
        to_jsonable("widget", np.eye(2))
    with pytest.raises(ValidationError):
        from_jsonable("widget", {})


def test_save_load_file(tmp_path):
    s = build_group_scheme(groups.cyclic(4))
    path = tmp_path / "scheme.json"
    save(path, "scheme", s)
    back = load(path, "scheme")
    assert np.array_equal(back.relation, s.relation)


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "d": 1, "relation": [[0, 1], [1, 0]')
    with pytest.raises(ValidationError, match="line"):
        load(path, "scheme")
    with pytest.raises(ValidationError, match="line"):
        loads("[1, 2,", "distribution")


def test_a_file_that_is_not_utf8_is_a_validation_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ValidationError, match="not UTF-8"):
        load(path, "scheme")


def test_decomposition_export():
    dec = decompose(build_johnson(4, 2))
    data = decomposition_to_jsonable(dec)
    assert data["n"] == 6 and data["d"] == 2
    assert data["multiplicities"] == [1, 3, 2]
    assert len(data["idempotents"]) == 3
    json.dumps(data)  # fully serializable


# ------------------------------------------- loop encoders as the oracle

def _loop_matrix(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return [[[float(v.real), float(v.imag)] for v in row] for row in a]
    if a.dtype.kind in "iu":
        return [[int(v) for v in row] for row in a]
    return [[float(v) for v in row] for row in a]


def _loop_tensor(entries):
    cast = int if entries.dtype.kind in "iu" else float
    return [[[cast(v) for v in row] for row in slab] for slab in entries]


def test_encoders_match_the_loop_encoders(builtin_schemes, krein_tensors):
    for s in builtin_schemes.values():
        loop = {"n": s.n, "d": s.d, "relation": _loop_matrix(s.relation)}
        assert json.dumps(to_jsonable("scheme", s)) == json.dumps(loop)
    g = RNG.normal(size=(5, 4)) + 1j * RNG.normal(size=(5, 4))
    g[0, 0] = complex(-0.0, -0.0)
    signed_zero = np.array([[-0.0, 0.0, 1e-300], [-1.5, 2.0 / 3.0, -0.0]])
    for m in (g, signed_zero, np.arange(12).reshape(3, 4)):
        assert json.dumps(encode_matrix(m)) == json.dumps(_loop_matrix(m))
    assert "-0.0" in json.dumps(encode_matrix(signed_zero))
    krein = krein_tensors["johnson_6_3"]
    loop = {"d": krein.d, "entries": _loop_tensor(krein.q)}
    assert json.dumps(to_jsonable("tensor", krein)) == json.dumps(loop)
    inter = intersection_numbers(builtin_schemes["johnson_6_3"])
    loop = {"d": inter.d, "entries": _loop_tensor(inter.p)}
    assert json.dumps(to_jsonable("tensor", inter)) == json.dumps(loop)
    fs = builtin_fusion_system("ising")
    assert to_jsonable("fusion-system", fs)["N"] == _loop_tensor(fs.N)
