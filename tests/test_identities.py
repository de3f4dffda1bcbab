"""Identity checks: exact residuals and empirical convention resolution."""

import hashlib
import json

import pytest

from qmb import identities
from qmb.algebra import ANTITRANSPOSE, FLIP, IDENTITY, TRANSPOSE, Element, commutator, reduce_terms
from qmb.identities import (
    FAILED,
    NOT_APPLICABLE,
    VERIFIED,
    check_centrality,
    check_E0_membership,
    check_gap_one,
    check_gap_r,
    check_muir_pair,
    check_qcommutation,
    commutator_terms,
    gap_correction_terms,
    generator_position,
    run_suite,
)
from qmb.minors import qcommutation_exponent, qcommutation_probe, quantum_minor
from qmb.scalars import ONE, QINV, LaurentQ


class TestCentrality:
    @pytest.mark.parametrize(
        "n,K,L,k,l",
        [
            (2, (1, 2), (1, 2), 1, 1),
            (3, (1, 3), (2, 3), 3, 2),
            (2, (2,), (2,), 2, 2),
        ],
    )
    def test_verified(self, n, K, L, k, l):
        res = check_centrality(n, K, L, k, l)
        assert res.status == VERIFIED
        assert res.residual.is_zero()

    def test_not_applicable(self):
        assert check_centrality(2, (1,), (1,), 2, 2).status == NOT_APPLICABLE


class TestQCommutation:
    def test_outside_above_row(self):
        res = check_qcommutation(3, (1, 2), (1, 2), 3, 1)
        assert res.status == VERIFIED
        assert res.convention["exponent"] == -1
        assert res.convention["geometry"] == "row-outside-above"

    def test_outside_below_row(self):
        res = check_qcommutation(3, (2, 3), (2, 3), 1, 2)
        assert res.status == VERIFIED
        assert res.convention["exponent"] == 1
        assert res.convention["geometry"] == "row-outside-below"

    def test_column_sides(self):
        above = check_qcommutation(3, (1, 2), (1, 2), 1, 3)
        below = check_qcommutation(3, (2, 3), (2, 3), 2, 1)
        assert above.convention == {"geometry": "col-outside-above", "exponent": -1}
        assert below.convention == {"geometry": "col-outside-below", "exponent": 1}

    def test_central_configuration_not_applicable(self):
        assert check_qcommutation(2, (1, 2), (1, 2), 1, 1).status == NOT_APPLICABLE

    def test_gap_configuration_not_applicable(self):
        # the outside label falls inside the range of its set
        assert check_qcommutation(3, (1, 3), (1, 3), 2, 1).status == NOT_APPLICABLE


class TestMuir:
    def test_single_interchange(self):
        res = check_muir_pair(3, (1, 2), (1, 3), (2, 3))[0]
        assert res.status == VERIFIED
        assert res.convention["exponent"] in (1, -1)

    def test_identical_sets_commute(self):
        res = check_muir_pair(3, (1, 2), (1, 3), (1, 3))[0]
        assert res.status == VERIFIED
        assert res.convention["exponent"] == 0

    def test_larger_instance(self):
        res = check_muir_pair(4, (1, 2), (1, 4), (3, 4))[0]
        assert res.status == VERIFIED
        assert res.convention["exponent"] in (1, -1)

    def test_two_label_difference_not_applicable(self):
        assert check_muir_pair(4, (1, 2), (1, 2), (3, 4))[0].status == NOT_APPLICABLE

    def test_sign_depends_only_on_label_order(self):
        res1 = check_muir_pair(3, (1, 2), (1, 3), (2, 3))[0]   # removed 1 < added 2
        res2 = check_muir_pair(4, (1, 3), (2, 4), (1, 4))[0]   # removed 2 > added 1
        assert res1.convention["exponent"] == 1
        assert res2.convention["exponent"] == -1


def muir_configurations(n_max):
    """Every (n, K, L, L') the sweep checks: L' is L with one label interchanged."""
    for n, K, L in identities._minor_shapes(n_max, None):
        for a in L:
            for b in range(1, n + 1):
                if b not in L:
                    yield n, K, L, tuple(sorted((set(L) - {a}) | {b}))


def flip_labels(n, labels):
    return tuple(sorted(n + 1 - x for x in labels))


def pair_orbit(n, K, L, Lp):
    """The flip orbit of the unordered Muir pair ``{(K, L), (K, L')}``."""
    pair = frozenset((L, Lp))
    image = frozenset(flip_labels(n, x) for x in pair)
    return n, frozenset(((K, pair), (flip_labels(n, K), image)))


class TestMuirPair:
    def test_both_results_equal_the_single_checks(self):
        configs = list(muir_configurations(4))
        assert {c[0] for c in configs} == {2, 3, 4}
        for n, K, L, Lp in configs:
            first, second = check_muir_pair(n, K, L, Lp)
            mirrored = check_muir_pair(n, K, Lp, L)
            assert first.to_json() == mirrored[1].to_json()
            assert second.to_json() == mirrored[0].to_json()
            # the exponents are those of the stand-alone probe, in each order
            DL, DLp = quantum_minor(n, K, L), quantum_minor(n, K, Lp)
            assert first.convention["exponent"] == qcommutation_probe(DL, DLp)
            assert second.convention["exponent"] == qcommutation_probe(DLp, DL)

    def test_identical_and_not_applicable_pairs(self):
        same = check_muir_pair(3, (1, 2), (1, 3), (1, 3))
        assert same[0].to_json() == same[1].to_json()
        first, second = check_muir_pair(4, (1, 2), (1, 2), (3, 4))
        assert (first.status, second.status) == (NOT_APPLICABLE, NOT_APPLICABLE)
        assert (first.config["L"], second.config["L"]) == ([1, 2], [3, 4])

    def test_failed_residuals_are_the_two_commutators(self, monkeypatch):
        monkeypatch.setattr(identities, "qcommutation_exponent", lambda ab, ba: None)
        n, K, L, Lp = 3, (1, 2), (1, 3), (2, 3)
        first, second = check_muir_pair(n, K, L, Lp)
        DL, DLp = quantum_minor(n, K, L), quantum_minor(n, K, Lp)
        assert (first.status, second.status) == (FAILED, FAILED)
        assert first.residual == commutator(DL, DLp)
        assert second.residual == commutator(DLp, DL)

    def test_each_interchanged_pair_reads_its_exponent_once(self, monkeypatch):
        calls = []

        def counted(ab, ba):
            calls.append((ab, ba))
            return qcommutation_exponent(ab, ba)

        monkeypatch.setattr(identities, "qcommutation_exponent", counted)
        configs = list(muir_configurations(3))
        for n, K, L, Lp in configs:
            first, second = check_muir_pair(n, K, L, Lp)
            assert first.convention["exponent"] == -second.convention["exponent"]
        assert len(calls) == len(configs)
        del calls[:]
        check_muir_pair(3, (1, 2), (1, 3), (1, 3))
        check_muir_pair(4, (1, 2), (1, 2), (3, 4))
        assert not calls

    def test_the_sweep_forms_each_pair_once(self, monkeypatch):
        """One pair of products per flip orbit of unordered pairs ``{L, L'}``
        gives the results of ``(L, L')``, ``(L', L)`` and their flip images."""
        calls = []

        def counted(*args):
            calls.append(args)
            return check_muir_pair(*args)

        monkeypatch.setattr(identities, "check_muir_pair", counted)
        report = run_suite(n_max=4, size_cap=3)
        swept = [(r.config["n"], tuple(r.config["K"]), tuple(r.config["L"]), tuple(r.config["Lprime"]))
                 for r in report.results if r.identity == "muir"]
        configs = [c for c in muir_configurations(4) if len(c[1]) <= 3]
        assert sorted(swept) == sorted(configs)  # every result once
        orbits = {pair_orbit(*c) for c in configs}
        assert len(calls) == len(orbits) == len({pair_orbit(*c) for c in calls})
        assert len(orbits) < len(configs) // 2


def flip_key(cfg):
    """The sweep's key of the flip image of a configuration."""
    n = cfg["n"]
    return tuple(v if name == "n" else n + 1 - v if type(v) is int else flip_labels(n, v)
                 for name, v in cfg.items())


def transpose_key(cfg):
    """The sweep's key of the transpose image of a generator configuration."""
    return cfg["n"], tuple(cfg["L"]), tuple(cfg["K"]), cfg["l"], cfg["k"]


def antitranspose_key(cfg):
    """The sweep's key of the antitranspose image of a generator configuration."""
    n = cfg["n"]
    return n, flip_labels(n, cfg["L"]), flip_labels(n, cfg["K"]), n + 1 - cfg["l"], n + 1 - cfg["k"]


def config_key(cfg):
    return tuple(tuple(v) if type(v) is list else v for v in cfg.values())


def image_keys(res):
    """The keys of the images the sweep files a verified result under: T, F
    and tau for a generator check, F alone for a Muir check."""
    if res.identity == "muir":
        return {flip_key(res.config)}
    return {transpose_key(res.config), flip_key(res.config), antitranspose_key(res.config)}


def test_the_image_of_a_configuration_is_the_tests_own():
    """``identities._image`` against ``transpose_key``, ``flip_key`` and
    ``antitranspose_key`` on every generator configuration at n <= 4, all
    sizes, and against ``flip_key`` on every Muir configuration; the image
    keeps the key order of the configuration."""
    generator = [identities._cfg(n, K, L, k=k, l=l) for n, K, L in identities._minor_shapes(4, None)
                 for k in range(1, n + 1) for l in range(1, n + 1)]
    muir = [identities._cfg(n, K, L, Lprime=list(Lp)) for n, K, L, Lp in muir_configurations(4)]
    maps = [(g, key_of, cfg) for cfg in generator
            for g, key_of in ((TRANSPOSE, transpose_key), (FLIP, flip_key), (ANTITRANSPOSE, antitranspose_key))]
    for g, key_of, cfg in maps + [(FLIP, flip_key, cfg) for cfg in muir]:
        image = identities._image(g, cfg)
        assert config_key(image) == key_of(cfg) and list(image) == list(cfg)
        assert identities._image(g, image) == cfg
    assert all(identities._image(IDENTITY, cfg) == cfg for cfg in generator + muir)
    assert len(generator) == 4 * 2**2 + 18 * 3**2 + 68 * 4**2  # every proper minor x every generator


FLIPPED_FAMILIES = ("centrality", "q-commutation", "muir")
GENERATOR_FAMILIES = ("centrality", "q-commutation")


def spoiled(res):
    """``res`` as a failed result with a nonzero residual."""
    return identities.CheckResult(res.identity, res.config, FAILED, Element.generator(res.config["n"], 1, 1),
                                  res.convention and dict.fromkeys(res.convention))


def recording(monkeypatch, spoil=None):
    """Record the arguments of every direct centrality, q-commutation and Muir
    check the sweep makes; the applicable check at ``spoil`` fails (the first
    result, for a Muir pair)."""
    calls = {}
    for name in ("check_centrality", "check_qcommutation", "check_muir_pair"):
        check = getattr(identities, name)

        def patched(*args, name=name, check=check):
            calls.setdefault(name, []).append(args)
            res = check(*args)
            if args != spoil:
                return res
            if name == "check_muir_pair":
                return spoiled(res[0]), res[1]
            return res if res.status == NOT_APPLICABLE else spoiled(res)

        monkeypatch.setattr(identities, name, patched)
    return calls


class TestFlipOrbits:
    """``run_suite`` checks one centrality or q-commutation configuration per
    orbit of the group {1, T, F, tau} (README lemmas 1 and 1a) and one Muir
    configuration per flip orbit, and derives the verified images; the
    report is the direct one."""

    def test_every_derived_result_equals_the_direct_check(self, monkeypatch):
        direct = {"centrality": check_centrality, "q-commutation": check_qcommutation,
                  "muir": lambda *args: check_muir_pair(*args)[0]}
        calls = recording(monkeypatch)
        report = run_suite(n_max=4, size_cap=None, include_membership=False)
        swept = [r for r in report.results if r.identity in FLIPPED_FAMILIES]
        called = {args for name in calls for args in calls[name]}
        derived = [r for r in swept if config_key(r.config) not in called]
        assert {r.identity for r in derived} == set(FLIPPED_FAMILIES)
        # both maps that the flip alone does not give are used
        assert any(transpose_key(r.config) in called for r in derived if r.identity == "q-commutation")
        assert any(antitranspose_key(r.config) in called for r in derived if r.identity == "q-commutation")
        for res in derived:
            # an image in its orbit was checked; for Muir, the products of its pair or of the image pair were formed
            key, images = config_key(res.config), image_keys(res)
            if res.identity == "muir":
                (image,) = images
                images = {c[:2] + c[:1:-1] for c in (key, image)} | {image}
            assert images & called
        for res in swept:
            want = direct[res.identity](*config_key(res.config))
            # the JSON text, so that the key order of config and convention counts too
            assert json.dumps(res.to_json()) == json.dumps(want.to_json())

    @pytest.mark.parametrize("identity, target, images", [
        # fixed by T, so its flip and antitranspose images coincide
        ("centrality", (3, (1, 2), (1, 2), 1, 1), [(3, (2, 3), (2, 3), 3, 3)]),
        ("centrality", (3, (1, 2), (1, 3), 1, 1),
         [(3, (1, 3), (1, 2), 1, 1), (3, (2, 3), (1, 3), 3, 3), (3, (1, 3), (2, 3), 3, 3)]),
        ("q-commutation", (3, (1, 2), (1, 2), 1, 3),
         [(3, (1, 2), (1, 2), 3, 1), (3, (2, 3), (2, 3), 3, 1), (3, (2, 3), (2, 3), 1, 3)]),
        ("muir", (3, (1, 2), (1, 2), (1, 3)), [(3, (2, 3), (2, 3), (1, 3))]),
    ], ids=["centrality", "centrality-transpose", "q-commutation", "muir"])
    def test_a_failed_result_is_not_mirrored(self, monkeypatch, identity, target, images):
        """The target is the first configuration of its orbit that the sweep
        reaches; when it fails, every image in the orbit is checked directly."""
        plain = run_suite(n_max=3, size_cap=None, include_membership=False).results
        calls = recording(monkeypatch, spoil=target)
        results = run_suite(n_max=3, size_cap=None, include_membership=False).results
        called = {args for name in calls for args in calls[name]}
        assert target in called and set(images) <= called
        assert [(r.identity, config_key(r.config)) for r in results if r.status == FAILED] == [(identity, target)]
        assert ([r.to_json() for r in results if config_key(r.config) != target]
                == [r.to_json() for r in plain if config_key(r.config) != target])

    def test_fixed_points_are_checked_directly(self, monkeypatch):
        calls = recording(monkeypatch)
        report = run_suite(n_max=5, size_cap=2, include_membership=False)
        swept = [r for r in report.results if r.identity in GENERATOR_FAMILIES]
        # fixed by each map alone, and by the whole group
        for key_of in (transpose_key, flip_key, antitranspose_key):
            assert any(key_of(r.config) == config_key(r.config) for r in swept)
        fixed = [r for r in swept if image_keys(r) == {config_key(r.config)}]
        assert fixed and all(r.identity == "centrality" for r in fixed)
        assert {config_key(r.config) for r in fixed} <= set(calls["check_centrality"])
        muir = [r.config for r in report.results if r.identity == "muir"]
        assert not [c for c in muir if flip_key(c) == config_key(c)]
        # a Muir pair whose image is its reversal: one call gives both results
        reversed_fixed = [c for c in muir if flip_key(c) == (c["n"], tuple(c["K"]), tuple(c["Lprime"]), tuple(c["L"]))]
        assert reversed_fixed
        for c in reversed_fixed:
            n, K, L, Lp = config_key(c)
            assert {(n, K, L, Lp), (n, K, Lp, L)} & set(calls["check_muir_pair"])

    def test_one_direct_check_per_orbit(self, monkeypatch):
        """At the benchmark's caps, each centrality and q-commutation result is
        checked directly exactly when it is the first of its orbit under the
        group that the sweep reaches, and ``check_muir_pair`` is called 427 times."""
        calls = recording(monkeypatch)
        report = run_suite(n_max=5, size_cap=4, include_membership=False)
        direct = {"centrality": set(calls["check_centrality"]), "q-commutation": set(calls["check_qcommutation"])}
        first = {"centrality": {}, "q-commutation": {}}
        for res in report.results:
            if res.identity in first:
                key = config_key(res.config)
                first[res.identity].setdefault(frozenset(image_keys(res) | {key}), key)
        for identity in GENERATOR_FAMILIES:
            swept = {config_key(r.config) for r in report.results if r.identity == identity}
            assert direct[identity] & swept == set(first[identity].values())
        assert (len(first["centrality"]), len(first["q-commutation"])) == (578, 521)
        assert len(calls["check_muir_pair"]) == 427


class TestGapOne:
    @pytest.mark.parametrize(
        "n,K,L,k,l",
        [
            (3, (1, 2), (1, 3), 1, 2),
            (3, (1, 2), (1, 3), 2, 2),
            (4, (2, 3), (1, 4), 3, 3),
        ],
    )
    def test_verified_with_recorded_order(self, n, K, L, k, l):
        res = check_gap_one(n, K, L, k, l)
        assert res.status == VERIFIED
        assert res.convention["factor_order"] == "generator-first"

    def test_gap_condition_violated(self):
        assert check_gap_one(3, (1, 2), (1, 3), 1, 3).status == NOT_APPLICABLE
        assert check_gap_one(3, (1, 2), (2, 3), 1, 1).status == NOT_APPLICABLE

    def test_explicit_instance(self):
        # D t - q^-1 t D == (1 - q^-2) t[1,1] D' with D' over columns {2,3}
        n = 3
        D = quantum_minor(n, (1, 2), (1, 3))
        Dp = quantum_minor(n, (1, 2), (2, 3))
        tt = Element.generator(n, 1, 2)
        t11 = Element.generator(n, 1, 1)
        lhs = D * tt - QINV * (tt * D)
        rhs = (t11 * Dp).scale(ONE - LaurentQ.q_power(-2))
        assert lhs == rhs


class TestGapR:
    def test_r1_matches_gap_one_reading(self):
        n, K, L, k, l = 3, (1, 2), (1, 3), 1, 2
        res = check_gap_r(n, K, L, k, l)
        assert res.status == VERIFIED
        assert res.convention == {"row_reading": "same-row", "column_reading": "sorted"}
        res1 = check_gap_one(n, K, L, k, l)
        assert res1.status == VERIFIED

    def test_depth_two_instance(self):
        res = check_gap_r(4, (1, 2, 4), (1, 2, 4), 4, 3)
        assert res.status == VERIFIED
        assert res.convention == {"row_reading": "same-row", "column_reading": "sorted"}

    def test_general_row_not_max(self):
        res = check_gap_r(4, (1, 2, 4), (1, 2, 4), 1, 3)
        assert res.status == VERIFIED
        assert res.convention["row_reading"] == "same-row"

    def test_inside_label_not_applicable(self):
        assert check_gap_r(4, (1, 2, 4), (1, 2, 4), 1, 2).status == NOT_APPLICABLE

    def test_gap_index_is_derived(self):
        res = check_gap_r(4, (1, 2, 4), (1, 2, 4), 4, 3)
        assert res.status == VERIFIED
        assert res.config["r"] == 2

    def test_correction_terms_replay(self):
        n, K, L, k, l = 4, (1, 2, 4), (1, 2, 4), 4, 3
        terms = gap_correction_terms(n, K, L, k, l)
        assert len(terms) == 2
        D = quantum_minor(n, K, L)
        t = Element.generator(n, k, l)
        lhs = D * t - QINV * (t * D)
        rhs = Element.zero(n)
        for coeff, (row, col), Lp in terms:
            rhs = rhs + (Element.generator(n, row, col) * quantum_minor(n, K, Lp)).scale(coeff)
        assert lhs == rhs


class TestGapFailures:
    """When no reading verifies, a gap check fails with the first reading's
    residual and every convention key None."""

    def test_gap_one(self, monkeypatch):
        n, K, L, k, l = 3, (1, 2), (1, 3), 1, 2
        ((coeff, (row, col), Lp),) = gap_correction_terms(n, K, L, k, l)
        monkeypatch.setattr(identities, "gap_correction_terms",
                            lambda *args: [(coeff + coeff, (row, col), Lp)])
        res = check_gap_one(n, K, L, k, l)
        D, t = quantum_minor(n, K, L), Element.generator(n, k, l)
        generator_first = (Element.generator(n, row, col) * quantum_minor(n, K, Lp)).scale(coeff + coeff)
        assert res.status == FAILED
        assert res.residual == D * t - QINV * (t * D) - generator_first
        assert res.convention == {"factor_order": None}

    def test_gap_r(self, monkeypatch):
        n, K, L, k, l = 4, (1, 2, 4), (1, 2, 4), 4, 3
        gap_rhs = identities._gap_rhs
        monkeypatch.setattr(identities, "_gap_rhs", lambda *args, **reading: 2 * gap_rhs(*args, **reading))
        res = check_gap_r(n, K, L, k, l)
        D, t = quantum_minor(n, K, L), Element.generator(n, k, l)
        first = 2 * gap_rhs(n, K, L, k, l, 2, **identities.GAP_READINGS[0])
        assert res.status == FAILED
        assert res.residual == D * t - QINV * (t * D) - first
        assert res.convention == {"row_reading": None, "column_reading": None}


class TestGeneratorPosition:
    @pytest.mark.parametrize("k,l,position", [
        (2, 2, "central"),
        (1, 2, "row-outside-below"),
        (5, 4, "row-outside-above"),
        (2, 1, "col-outside-below"),
        (4, 5, "col-outside-above"),
        (2, 3, "column-gap"),
        (3, 2, "row-gap"),
        (3, 3, "outside"),
        (1, 5, "outside"),
    ])
    def test_positions(self, k, l, position):
        assert generator_position((2, 4), (2, 4), k, l) == position

    def test_guards_follow_the_position(self):
        # each generator check applies exactly where its position says
        n, K, L = 4, (1, 3), (2, 4)
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                position = generator_position(K, L, k, l)
                applies = {
                    "central": check_centrality(n, K, L, k, l).status != NOT_APPLICABLE,
                    "q-commuting": check_qcommutation(n, K, L, k, l).status != NOT_APPLICABLE,
                    "column-gap": check_gap_one(n, K, L, k, l).status != NOT_APPLICABLE,
                }
                assert applies["central"] == (position == "central")
                assert applies["q-commuting"] == position.endswith(("-below", "-above"))
                assert applies["column-gap"] == (position == "column-gap")


def test_commutator_terms_sum_to_the_commutator():
    n = 3
    t = Element.generator(n, 3, 3)
    terms = [(ONE, ((1, 2), (2, 1))), (QINV, ((1, 1),)), (ONE, ((1, 3), (3, 1), (2, 2)))]
    expansion = commutator_terms(t, terms)
    assert all(len(word) == len(w) + 1 for w, _, (_, word) in expansion)
    # the reference reducer sums the expansion, the kernel forms the commutator
    total = Element._make(n, reduce_terms([(c, word) for _, _, (c, word) in expansion]))
    assert total == commutator(t, Element(n, [(w, c) for c, w in terms]))


def test_every_sweep_expansion_sums_to_the_commutator(monkeypatch):
    """For every E0 membership check of the n <= 3 sweep, the expansion that
    ``check_E0_membership`` certifies, summed by the agenda reducer, equals
    the product kernel's commutator: an independent cross-check of both."""
    calls = []
    check = identities.check_E0_membership

    def record(n, K, L, outside, e_terms):
        calls.append((n, outside, list(e_terms)))
        return check(n, K, L, outside, calls[-1][2])

    monkeypatch.setattr(identities, "check_E0_membership", record)
    assert run_suite(n_max=3).all_verified()
    assert len(calls) > 100
    for n, outside, e_terms in calls:
        t = Element.generator(n, *outside)
        expansion = commutator_terms(t, e_terms)
        total = Element._make(n, reduce_terms([(c, word) for _, _, (c, word) in expansion]))
        assert total == commutator(t, Element(n, [(w, c) for c, w in e_terms]))


class TestMembership:
    def test_single_inner_letter(self):
        res = check_E0_membership(3, (1,), (2,), (3, 3), [(ONE, ((1, 2),))])
        assert res.status == VERIFIED
        assert res.convention["leaf_count"] == 1

    def test_unit_element(self):
        res = check_E0_membership(3, (1,), (1,), (3, 3), [(ONE, ())])
        assert res.status == VERIFIED
        assert res.convention["leaf_count"] == 0

    def test_inner_word_certified(self):
        res = check_E0_membership(3, (1,), (1,), (3, 3), [(ONE, ((1, 1), (1, 1)))])
        assert res.status == VERIFIED

    def test_mixed_word_obstruction_is_detected(self):
        # letters lie in the subalgebra but wander outside the inner block;
        # the commutator genuinely leaves the subalgebra here and the
        # obstruction term is reported exactly
        res = check_E0_membership(3, (1,), (1,), (3, 3), [(ONE, ((1, 2), (2, 1)))])
        assert res.status == FAILED
        assert not res.residual.is_zero()
        # the obstruction equals the full commutator in this configuration
        n = 3
        e = Element.generator(n, 1, 2) * Element.generator(n, 2, 1)
        assert res.residual == commutator(Element.generator(n, 3, 3), e)

    def test_letter_outside_subalgebra_rejected(self):
        with pytest.raises(ValueError):
            check_E0_membership(3, (1,), (1,), (3, 3), [(ONE, ((2, 2),))])

    def test_outside_generator_precondition(self):
        res = check_E0_membership(3, (1,), (1,), (1, 2), [(ONE, ())])
        assert res.status == NOT_APPLICABLE


class TestSuite:
    def test_n2_full_sweep(self):
        report = run_suite(n_max=2, size_cap=None)
        assert report.all_verified()
        counts = report.counts()
        assert counts["centrality"][VERIFIED] > 0
        assert counts["q-commutation"][VERIFIED] > 0

    def test_n3_sweep(self):
        report = run_suite(n_max=3, size_cap=2)
        assert report.all_verified()
        assert report.counts()["gap-one"][VERIFIED] > 0
        assert report.counts()["gap-r"][VERIFIED] > 0

    def test_the_sweep_forms_each_gap_commutator_once(self, monkeypatch):
        """Both gap checks of a configuration read one formed ``D t - q^-1 t D``."""
        calls = []
        gap_lhs = identities._gap_lhs

        def counted(*args):
            calls.append(args)
            return gap_lhs(*args)

        monkeypatch.setattr(identities, "_gap_lhs", counted)
        report = run_suite(n_max=4)
        assert report.all_verified()
        gap_r = [r for r in report.results if r.identity == "gap-r"]
        assert any(r.identity == "gap-one" for r in report.results)
        assert len(gap_r) == len(calls) == len(set(calls))

    def test_vacuous_at_n1(self):
        report = run_suite(n_max=1, size_cap=None)
        assert report.all_verified()
        assert not report.results

    def test_convention_consistency(self):
        report = run_suite(n_max=3, size_cap=2)
        conv = report.conventions
        assert conv["q-commutation"] == {
            "col-outside-above": -1,
            "col-outside-below": 1,
            "row-outside-above": -1,
            "row-outside-below": 1,
        }
        assert conv["muir"] == {"removed<added": 1, "removed>added": -1}
        assert conv["gap-one-factor-order"] == ["generator-first"]
        assert conv["gap-r-reading"] == [["same-row", "sorted"]]

    def test_default_report_is_pinned(self):
        """The default sweep's canonical JSON (1,490 results), hashed."""
        text = json.dumps(run_suite().to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "04c5a4c0622b67fde5009616ef04f723a28b653d961ef21eba99af9b803a92b4"
        )

    def test_report_json_shape(self):
        report = run_suite(n_max=2, size_cap=None, include_membership=False)
        data = report.to_json()
        assert data["schema"] == "qmb-suite-report-v1"
        assert data["all_verified"] is True
        assert all("residual" in r for r in data["results"])


class TestTransposeCovariance:
    def test_symmetric_checks_survive_index_swap(self):
        configs = [
            ("centrality", (3, (1, 3), (2, 3), 3, 2)),
            ("q-commutation", (3, (1, 2), (1, 2), 3, 1)),
        ]
        checkers = {"centrality": check_centrality, "q-commutation": check_qcommutation}
        for name, (n, K, L, k, l) in configs:
            assert checkers[name](n, K, L, k, l).status == VERIFIED
            assert checkers[name](n, L, K, l, k).status == VERIFIED

    def test_gap_identity_transposes_to_the_row_sided_identity(self):
        # applying the index-swap homomorphism to the verified column-gap
        # identity yields the row-gap identity, with replaced ROW sets
        n = 3
        D = quantum_minor(n, (1, 3), (1, 2))       # transpose of D over (1,2),(1,3)
        Dp = quantum_minor(n, (2, 3), (1, 2))      # transpose of the replaced minor
        tt = Element.generator(n, 2, 1)            # transpose of t[1,2]
        t11 = Element.generator(n, 1, 1)
        lhs = D * tt - QINV * (tt * D)
        rhs = (t11 * Dp).scale(ONE - LaurentQ.q_power(-2))
        assert lhs == rhs
