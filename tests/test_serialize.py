import base64
import binascii
import json
import re
import tracemalloc

import numpy as np
import pytest

from schemewalk import (
    AssociationScheme,
    serialize,
    ValidationError,
    build_grassmann,
    build_group_scheme,
    build_johnson,
    builtin_fusion_system,
    cyclic_fusion_system,
    decompose,
    groups,
    intersection_numbers,
    schemes,
)
from schemewalk.schemes import _packed_dtype
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
    rel = s.relation.copy()
    rel[0][0] = 1
    packed = to_jsonable("scheme", AssociationScheme(s.n, s.d, rel))  # never verified
    for data in (packed, {**packed, "relation": rel.tolist()}):
        with pytest.raises(ValidationError, match="axiom"):
            from_jsonable("scheme", data)
        # validation can be bypassed for diagnostic loads
        loaded = from_jsonable("scheme", data, validate=False)
        assert loaded.relation[0][0] == 1


J42 = {**to_jsonable("scheme", build_johnson(4, 2)),
       "relation": build_johnson(4, 2).relation.tolist()}
Z2 = to_jsonable("fusion-system", cyclic_fusion_system(2))
# the class index of (0, 1) plus one half, which a cast to int would drop
HALF = [list(row) for row in J42["relation"]]
HALF[0][1] += 0.5


def _packed_j42(relation):
    return {"n": 6, "d": 2, "relation": relation}


# J(4,2)'s own bytes, the u1 payload that its file carried before bit packing
J42_B64 = base64.b64encode(build_johnson(4, 2).relation.tobytes()).decode("ascii")
_OUT_OF_RANGE = bytearray(base64.b64decode(J42_B64))
_OUT_OF_RANGE[1] = 3  # d = 2
# Z_3's rows 0 2 1 / 1 0 2 / 2 1 0 at 2 bits an entry, entry j of a byte in
# its bits 2j and 2j + 1: 18 bits in 3 bytes, 6 of them padding
Z3_B2 = bytes([0b01_01_10_00, 0b01_10_10_00, 0b00])


def _b2_z3(raw):
    return {"n": 3, "d": 2, "relation": {"dtype": "b2", "base64": base64.b64encode(raw).decode()}}


PACKED_REFUSALS = [
    (_packed_j42({"dtype": "u1", "base64": J42_B64[:-4]}), "36 bytes.*got 33"),
    ({"n": 1, "d": 0, "relation": {"dtype": "u1", "base64": "AB=="}}, "not canonical"),
    (_packed_j42({"dtype": "u1", "base64": J42_B64[:24] + "\n" + J42_B64[24:]}),
     "not base64"),
    (_packed_j42({"dtype": "i1", "base64": J42_B64}), "dtype must be one of"),
    (_packed_j42({"dtype": ["u1"], "base64": J42_B64}), "dtype must be one of"),
    (_packed_j42({"dtype": "u1", "base64": J42_B64, "order": "C"}), "exactly the keys"),
    (_packed_j42({"dtype": "u1"}), "exactly the keys"),
    (_packed_j42({"dtype": "u1", "base64": list(base64.b64decode(J42_B64))}),
     "must be a string"),
    (_packed_j42({"dtype": "u1",
                  "base64": base64.b64encode(bytes(_OUT_OF_RANGE)).decode()}),
     r"class indices must lie in 0\.\.2"),
    (_packed_j42({"dtype": "u2", "base64": J42_B64}), "72 bytes.*got 36"),
    ({"n": -6, "d": 2, "relation": {"dtype": "u1", "base64": J42_B64}},
     "a scheme needs at least one vertex, got n=-6"),
    (_b2_z3(Z3_B2[:2] + bytes([0b0100_0000])), r"padding bits are not 0: its last byte "
     r"is 0x40, of which only the low 2 bits hold entries"),
    (_b2_z3(Z3_B2[:2] + bytes([0b1000_0000])), "padding bits are not 0"),
    (_b2_z3(Z3_B2[:2]), r"3x3 b2 entries \(3 bytes\), got 2 bytes"),
    (_b2_z3(Z3_B2 + b"\0"), r"3x3 b2 entries \(3 bytes\), got 4 bytes"),
    ({**_b2_z3(Z3_B2), "relation": {"dtype": "b3", "base64": "AAAA"}}, "dtype must be one of"),
    ({**_b2_z3(Z3_B2), "relation": {"dtype": "b8", "base64": "AAAA"}}, "dtype must be one of"),
    (_b2_z3(Z3_B2[:2] + bytes([0b11])), r"class indices must lie in 0\.\.2"),
]


@pytest.mark.parametrize("kind,data", [
    ("scheme", {**J42, "relation": HALF}),
    ("scheme", {**J42, "relation": [[0, 1]] + J42["relation"][1:]}),
    ("scheme", {**J42, "relation": "abc"}),
    ("scheme", {**J42, "relation": [["0"] * 6] * 6}),
    ("scheme", {**J42, "n": "6"}),
    ("scheme", {**J42, "d": 2.0}),
    ("scheme", {**J42, "n": True}),
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
    *[("scheme", data) for data, _ in PACKED_REFUSALS],
])
def test_malformed_json_is_a_validation_error(kind, data):
    with pytest.raises(ValidationError):
        from_jsonable(kind, data)
    with pytest.raises(ValidationError):
        from_jsonable(kind, data, validate=False)


@pytest.mark.parametrize("data,match", PACKED_REFUSALS)
def test_packed_relation_refusals_name_their_cause(data, match):
    for validate in (True, False):
        with pytest.raises(ValidationError, match=match):
            from_jsonable("scheme", data, validate=validate)


_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _reencode_oracle(text):
    """The route the O(1) checks replaced: decode, then require that
    encoding the bytes again gives back `text`."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:
        return "not base64"
    return raw if base64.b64encode(raw).decode("ascii") == text else "not canonical"


def _checked_route(text):
    try:
        return serialize._canonical_b64decode(text)
    except ValidationError as exc:
        cause = re.match(r"packed relation is (not base64|not canonical)", str(exc))
        return cause.group(1)


def _b64decode_py310(s, altchars=None, validate=False):
    """`b64decode` as Python 3.10 runs it: `validate` is a pattern over the
    alphabet and up to two trailing "=", then the lenient decoder."""
    if isinstance(s, str):
        s = s.encode("ascii")
    if validate and not re.fullmatch(b"[A-Za-z0-9+/]*={0,2}", s):
        raise binascii.Error("Non-base64 digit found")
    return binascii.a2b_base64(s)


def _base64_cases():
    """Canonical payloads of every length mod 3, each non-zero value of
    their unused bits, a missing, misplaced or extra "=", and whitespace."""
    cases = ["", "=", "==", "===", "====", "A", "AA", "AAA", "QUJD\u00e9"]
    for size in range(10):
        text = base64.b64encode(bytes(range(40, 40 + size))).decode("ascii")
        pads = text.count("=")
        data = text[:len(text) - pads]
        cases += [text, data, data + "=" * (3 - pads), text + "=", text + "==",
                  "=" + text, data[:2] + "=" + data[2:] + "=" * pads, text + text]
        if pads:
            at = len(data) - 1
            value = _ALPHABET.index(text[at])
            cases += [text[:at] + _ALPHABET[value + bits] + text[at + 1:]
                      for bits in range(1, 16 if pads == 2 else 4)]
        cases += [text[:i] + space + text[i:] for space in (" ", "\n", "\t", "\r\n")
                  for i in (0, 2, len(text))]
    return cases


@pytest.mark.parametrize("decoder", ["this interpreter", "python 3.10"])
def test_canonical_base64_matches_the_reencode_oracle(decoder, monkeypatch):
    """On this interpreter's `b64decode` and on 3.10's pattern-checked one,
    the O(1) checks accept and refuse what re-encoding did, with the
    same bytes and the same cause."""
    if decoder == "python 3.10":
        monkeypatch.setattr(base64, "b64decode", _b64decode_py310)
    cases = _base64_cases()
    verdicts = [_checked_route(text) for text in cases]
    assert verdicts == [_reencode_oracle(text) for text in cases]
    assert {v for v in verdicts if isinstance(v, str)} == {"not base64", "not canonical"}
    assert sum(isinstance(v, bytes) for v in verdicts) >= 10


@pytest.mark.parametrize("text, match", [
    ("QUI=", None), ("QUJ=", r"the unused low bits of 'J' before the padding are not 0"),
    ("QQ==", None), ("QR==", r"the unused low bits of 'R' before the padding are not 0"),
    ("QUJD=", r"its length 5 is not a multiple of 4"),
    ("QUJDQUI==", r"its length 9 is not a multiple of 4"),
])
def test_each_non_canonical_cause_has_its_message(text, match, monkeypatch):
    # the lenient 3.10 decoder lets a stray "=" reach the length check
    monkeypatch.setattr(base64, "b64decode", _b64decode_py310)
    if match is None:
        assert serialize._canonical_b64decode(text) == base64.b64decode(text)
    else:
        with pytest.raises(ValidationError, match="not canonical base64: " + match):
            serialize._canonical_b64decode(text)


def test_packed_byte_count_is_checked_before_any_allocation():
    # n = 10^6 would be a 1 TB matrix, from 125 GB at one bit an entry;
    # a 4-byte payload is refused at once
    for code in ("u1", "b1"):
        data = {"n": 10**6, "d": 1, "relation": {"dtype": code, "base64": "AAAAAA=="}}
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="got 4 bytes"):
                from_jsonable("scheme", data, validate=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _relabelled(s, seed):
    perm = np.random.default_rng(seed).permutation(s.n)
    return AssociationScheme(s.n, s.d, s.relation[np.ix_(perm, perm)])


def test_scheme_roundtrips_through_both_wire_forms(builtin_schemes):
    for seed, s in enumerate(builtin_schemes.values()):
        for case in (s, _relabelled(s, seed)):
            packed = json.loads(json.dumps(to_jsonable("scheme", case)))
            nested = {**packed, "relation": case.relation.tolist()}
            for data in (packed, nested):
                back = from_jsonable("scheme", data)
                assert back.relation.dtype == _packed_dtype(case.d)
                assert np.array_equal(back.relation, case.relation)
                assert (back.n, back.d) == (case.n, case.d)


def test_the_file_and_the_store_key_carry_the_schemes_own_bytes(builtin_schemes, tmp_path):
    """The relation bytes a scheme holds are the bytes of its store key,
    and its file carries them bit-packed for d <= 15, else as they are; a
    loaded scheme holds them again, read from its packed file, from the
    u1 payload of its own bytes or a wider one, or from nested rows."""
    path = tmp_path / "scheme.json"
    for seed, s in enumerate(builtin_schemes.values()):
        for case in (s, _relabelled(s, seed)):
            rel = case.relation
            assert rel.dtype == _packed_dtype(case.d)
            assert rel.flags.c_contiguous and not rel.flags.writeable
            save(path, "scheme", case)
            packed = json.loads(path.read_text())["relation"]
            code, raw = packed["dtype"], base64.b64decode(packed["base64"])
            bits = 1 if case.d < 2 else 2 if case.d < 4 else 4 if case.d < 16 else None
            assert code == (f"b{bits}" if bits else "u1")
            assert (_loop_unpacked(raw, bits, case.n) if bits else raw) == rel.tobytes()
            assert schemes._content_key(case) == ("axioms", (case.n, case.d), rel.tobytes())
            # the u1 payload of the scheme's own bytes, as files carried it before
            # bit packing, and the wider widths
            widths = [{"dtype": f"u{w}", "base64": base64.b64encode(rel.astype(f"<u{w}")).decode()}
                      for w in (1, 2, 4)]
            for relation in (packed, *widths, rel.tolist()):
                back = from_jsonable("scheme", {"n": case.n, "d": case.d, "relation": relation})
                assert back.relation.dtype == rel.dtype and back.relation.tobytes() == rel.tobytes()
                assert back.relation.flags.c_contiguous and not back.relation.flags.writeable


def test_packed_dtype_is_the_narrowest_that_holds_d():
    z300 = build_group_scheme(groups.cyclic(300))  # d = 299
    # every ordered pair in its own class: d = 257 * 256 = 65792 (no axiom 4)
    x, y = np.indices((257, 257))
    pairs = AssociationScheme(257, 257 * 256, np.where(x == y, 0, x * 256 + y - (y > x) + 1))
    # verifying d = 299 takes seconds, and `pairs` fails axiom 4: load both unverified
    cases = [(build_johnson(4, 1), "b1", True), (build_johnson(4, 2), "b2", True),
             (build_johnson(6, 3), "b2", True), (build_group_scheme(groups.cyclic(5)), "b4", True),
             (build_group_scheme(groups.cyclic(16)), "b4", True),
             (build_group_scheme(groups.cyclic(17)), "u1", True), (z300, "u2", False),
             (pairs, "u4", False)]
    for s, code, validate in cases:
        relation = to_jsonable("scheme", s)["relation"]
        assert relation["dtype"] == code
        assert relation == _loop_packed(s.relation, s.d)  # little-endian, row-major
        back = loads(json.dumps(to_jsonable("scheme", s)), "scheme", validate=validate)
        assert np.array_equal(back.relation, s.relation)


@pytest.mark.parametrize("s, code, size", [
    (AssociationScheme(1, 0, [[0]]), "b1", 1),  # one byte, 7 of its bits padding
    (build_johnson(3, 1), "b1", 2),  # 9 entries: 9 bits
    (build_group_scheme(groups.cyclic(3)), "b2", 3),  # 18 bits
    (build_group_scheme(groups.cyclic(5)), "b4", 13),  # 100 bits
    (build_johnson(5, 2), "b2", 25),  # 200 bits, no padding
], ids=["n1", "j31", "z3", "z5", "j52"])
def test_bit_packed_payloads_round_trip_with_zero_padding(s, code, size):
    relation = to_jsonable("scheme", s)["relation"]
    raw = base64.b64decode(relation["base64"])
    assert (relation["dtype"], len(raw)) == (code, size)
    used = s.n ** 2 * int(code[1]) % 8
    assert not used or raw[-1] >> used == 0
    back = loads(json.dumps(to_jsonable("scheme", s)), "scheme")
    assert back.relation.dtype == s.relation.dtype
    assert back.relation.tobytes() == s.relation.tobytes()


def test_packed_dump_peaks_at_a_small_multiple_of_n_squared():
    s = build_group_scheme(groups.cyclic(1000))  # d = 999, two bytes an entry
    tracemalloc.start()
    try:
        text = json.dumps(to_jsonable("scheme", s))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) < 3 * s.n ** 2
    # the nested path held 10^6 Python ints and their list, over 40 bytes an entry
    assert peak < 12 * s.n ** 2


@pytest.mark.parametrize("key", ["1,1,+0", " 1,1,0", "1,1,0 ", "01,1,0", "1,1,00", "1_0,1,0",
                                 "1,1,\u0660", "1,,0", "1,1"])
def test_a_fusion_system_key_must_name_its_entry_one_way(key):
    data = to_jsonable("fusion-system", builtin_fusion_system("ising"))
    with pytest.raises(ValidationError, match="R key .* got " + re.escape(repr(key))):
        from_jsonable("fusion-system", {**data, "R": {**data["R"], key: [0.0, 1.0]}})


def test_a_json_object_that_repeats_a_key_is_refused():
    ising = json.dumps(to_jsonable("fusion-system", builtin_fusion_system("ising")))
    assert '"1,1,0": ' in ising
    # a second R[1,1,0] used to overwrite the first without notice
    twice = ising.replace('"1,1,0": ', '"1,1,0": [0.0, 1.0], "1,1,0": ', 1)
    with pytest.raises(ValidationError, match="repeats the key '1,1,0'"):
        loads(twice, "fusion-system")
    j42 = json.dumps(to_jsonable("scheme", build_johnson(4, 2)))
    with pytest.raises(ValidationError, match="repeats the key 'n'"):
        loads(j42.replace('"n": 6', '"n": 6, "n": 6'), "scheme")
    assert loads(ising, "fusion-system").R == builtin_fusion_system("ising").R


def test_cayley_roundtrip():
    for g in (groups.cyclic(6), groups.quaternion(), groups.symmetric(3)):
        back = roundtrip("cayley", g)
        assert back == g


def test_cayley_rejects_inconsistent_order():
    g = groups.cyclic(3)
    data = to_jsonable("cayley", g)
    data["order"] = 4
    with pytest.raises(ValidationError):
        from_jsonable("cayley", data)


def test_files_that_still_carry_labels_or_a_name_load():
    s, g = build_johnson(4, 2), groups.quaternion()
    assert "labels" not in to_jsonable("scheme", s) and "name" not in to_jsonable("cayley", g)
    scheme_text = json.dumps({**to_jsonable("scheme", s), "labels": ["0", "1", "2"]})
    cayley_text = json.dumps({**to_jsonable("cayley", g), "name": "Q_8"})
    assert loads(scheme_text, "scheme") == s
    assert loads(cayley_text, "cayley") == g


J42_RELATION = build_johnson(4, 2).relation


@pytest.mark.parametrize("n, d", [
    (6, 2), (np.int64(6), 2), (6, np.uint8(2)), (np.int32(6), np.int16(2)),
], ids=["int", "int64-n", "uint8-d", "int32-int16"])
def test_every_accepted_scheme_roundtrips_through_its_file(n, d):
    s = AssociationScheme(n, d, J42_RELATION)
    assert type(s.n) is int and type(s.d) is int
    back = loads(json.dumps(to_jsonable("scheme", s)), "scheme")
    assert back == s


@pytest.mark.parametrize("n, d", [
    (6.0, 2), (6, 2.0), (True, 2), (6, True), (6, 1.5), ("6", 2), (6, "2"),
    (np.float64(6), 2), (6, np.bool_(True)), (None, 2),
])
def test_a_scheme_refuses_n_and_d_that_are_not_integers(n, d):
    with pytest.raises(ValidationError, match="must be an integer"):
        AssociationScheme(n, d, J42_RELATION)


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


def test_a_complex_distribution_is_refused():
    # float() of a complex entry would drop its imaginary part
    with pytest.raises(ValidationError, match="distribution entries must be real"):
        to_jsonable("distribution", np.array([0.5, 0.5 + 1e-3j]))


@pytest.mark.parametrize("kind, data, match", [
    ("scheme", {"n": 3, "d": 1}, 'scheme JSON must have keys "n", "d", "relation"'),
    ("cayley", {"order": 1}, 'cayley JSON must have keys "order", "cayley"'),
    ("tensor", {"d": 1}, 'tensor JSON must have keys "d", "entries"'),
    ("fusion-system", {"labels": ["1"]}, 'fusion-system JSON must have keys "labels", "N"'),
    ("distribution", [], "distribution must be a non-empty JSON array"),
], ids=["scheme", "cayley", "tensor", "fusion-system", "empty distribution"])
def test_a_kind_missing_its_keys_is_refused(kind, data, match):
    with pytest.raises(ValidationError, match=re.escape(match)):
        from_jsonable(kind, data)


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
    assert set(data) == {"n", "d", "multiplicities", "eigenmatrix_P", "eigenmatrix_Q"}
    json.dumps(data)  # fully serializable


# ------------------------------------------- loop encoders as the oracle

def _loop_matrix(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return [[[float(v.real), float(v.imag)] for v in row] for row in a]
    if a.dtype.kind in "iu":
        return [[int(v) for v in row] for row in a]
    return [[float(v) for v in row] for row in a]


def _loop_packed(rel, d):
    entries = [int(v) for row in rel for v in row]
    if d < 2**4:
        bits = 1 if d < 2 else 2 if d < 4 else 4
        per_byte = 8 // bits
        raw = bytes(sum(v << bits * j for j, v in enumerate(entries[at:at + per_byte]))
                    for at in range(0, len(entries), per_byte))
        code = f"b{bits}"
    else:
        width = 1 if d < 2**8 else 2 if d < 2**16 else 4
        raw = b"".join(v.to_bytes(width, "little") for v in entries)
        code = f"u{width}"
    return {"dtype": code, "base64": base64.b64encode(raw).decode("ascii")}


def _loop_unpacked(raw, bits, n):
    """The u1 bytes of the n*n entries of a bit-packed payload."""
    mask = (1 << bits) - 1
    entries = [byte >> bits * j & mask for byte in raw for j in range(8 // bits)]
    return bytes(entries[:n * n])


def _loop_tensor(entries):
    cast = int if entries.dtype.kind in "iu" else float
    return [[[cast(v) for v in row] for row in slab] for slab in entries]


def test_encoders_match_the_loop_encoders(builtin_schemes, krein_tensors):
    for s in builtin_schemes.values():
        loop = {"n": s.n, "d": s.d, "relation": _loop_packed(s.relation, s.d)}
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
