"""The Cartesian checks catch planted faults, compute each rectangle's
image once, close each region once, refuse exactly the windows their
message names (the injectivity and Galois checks before they enumerate any
rectangle) and a sample count below 1, and the sampled checks draw the
samples they always drew.  A closure of another number of axes whose key
aliases a kept one is refused, never read from a table.

A planted fault makes iota (``_iota_mask``, which every check maps
rectangles with), ``Rectangle.meet`` or ``rectangle_closure`` wrong on the
rectangles whose first axis is {1, 2},
or ``Rectangle.componentwise_leq`` wrong when the other rectangle's first
axis is {1, 2}.  The expected verdicts were recorded with the checks that
evaluated ``iota`` once per pair and compared frozensets, and, for the
order fault, ``componentwise_leq`` once per pair; a check that only reuses
images and order rows must reach the same ``ok``, ``checked`` and witness.
The checks state meet and order on keys, as ``&`` and key inclusion, so a
fault of ``meet`` or ``componentwise_leq`` leaves their verdicts as they
are; the per-pair loops ``naive_meets`` and ``naive_galois``, which call
both methods, reach the recorded verdicts of those faults, and
``test_rectangle_masks`` catches both faults on its own.

The exhaustive checks compare a row of pairs at a time and scan a row pair
by pair only when it differs.  Faults planted at the last pair of a row and
at the first pair of the last row are checked against the naive loops, and
so is every pinned exhaustive verdict.
"""

import hashlib

import pytest

from abslog import cartesian
from abslog.cartesian import (
    MAX_GALOIS_PAIRS,
    MAX_INJECTIVE_AXIS_POINTS,
    MAX_MEET_AXIS_POINTS,
    Rectangle,
    check_galois,
    check_iota_injective_on_nonempty,
    check_iota_preserves_meets,
    tuple_universe,
)
from abslog.concrete import ConcreteSet, ConcreteUniverse
from abslog.errors import AbslogError, CarrierTooLarge, InvalidConcretization

FAULTY_AXIS = frozenset({1, 2})

iota_mask = cartesian._iota_mask
meet = Rectangle.meet
componentwise_leq = Rectangle.componentwise_leq
rectangle_closure = cartesian.rectangle_closure


def _hit(rect: Rectangle) -> bool:
    return rect.axes[0].members == FAULTY_AXIS


def _narrowed(rect: Rectangle) -> Rectangle:
    """The rectangle with its first axis {1, 2} cut to {1}."""
    return Rectangle((rect.axes[0].universe.subset({1}),) + rect.axes[1:])


def iota_drops_a_point(rect, target):
    image = iota_mask(rect, target)
    if _hit(rect) and image:
        return image & (image - 1)  # its least point dropped
    return image


def meet_narrows(self, other):
    m = meet(self, other)
    return _narrowed(m) if _hit(m) else m


def closure_narrows(r):
    c = rectangle_closure(r)
    return _narrowed(c) if _hit(c) else c


def leq_flips(self, other):
    return componentwise_leq(self, other) != _hit(other)


FAULTS = {
    "iota": (cartesian, "_iota_mask", iota_drops_a_point),
    "meet": (Rectangle, "meet", meet_narrows),
    "closure": (cartesian, "rectangle_closure", closure_narrows),
    "leq": (Rectangle, "componentwise_leq", leq_flips),
}

CHECKS = {
    "meets-exhaustive": (check_iota_preserves_meets, ((0, 3), (0, 3)), None),
    "galois-exhaustive": (check_galois, ((0, 2), (0, 2)), None),
    "meets-sampled": (check_iota_preserves_meets, ((0, 2),) * 3, 2000),
    "galois-sampled": (check_galois, ((0, 2),) * 3, 2000),
}

# (fault, check) -> (ok, checked, witness as sorted axis members)
EXPECTED = {
    ("iota", "meets-exhaustive"): (False, 8546, (([1], [0]), ([1, 2], [0]))),
    ("iota", "galois-exhaustive"): (False, 562, ([(1, 0)], ([1, 2], [0]))),
    ("iota", "meets-sampled"):
        (False, 4, (([1, 2], [0, 1], [0, 2]), ([0, 1, 2], [0], [2]))),
    ("iota", "galois-sampled"): (True, 2000, None),
    ("meet", "meets-exhaustive"): (False, 24930, (([1, 2], [0]), ([1, 2], [0]))),
    ("meet", "galois-exhaustive"): (True, 32768, None),
    ("meet", "meets-sampled"):
        (False, 4, (([1, 2], [0, 1], [0, 2]), ([0, 1, 2], [0], [2]))),
    ("meet", "galois-sampled"): (True, 2000, None),
    ("closure", "meets-exhaustive"): (True, 65536, None),
    ("closure", "galois-exhaustive"):
        (False, 4626, ([(1, 0), (2, 0)], ([1], [0]))),
    ("closure", "meets-sampled"): (True, 2000, None),
    ("closure", "galois-sampled"): (True, 2000, None),
    ("leq", "meets-exhaustive"): (True, 65536, None),
    ("leq", "galois-exhaustive"): (False, 49, ([], ([1, 2], []))),
    ("leq", "meets-sampled"): (True, 2000, None),
    ("leq", "galois-sampled"):
        (False, 3, ([(0, 0, 0), (0, 0, 2), (0, 1, 0), (0, 1, 2), (0, 2, 2),
                     (1, 0, 2), (1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 2, 2),
                     (2, 1, 0), (2, 1, 1), (2, 2, 0)], ([1, 2], [2], []))),
}


def _plain(witness):
    """A witness as sorted member lists, whatever holds the sets."""
    if witness is None:
        return None
    if isinstance(witness, Rectangle):
        return tuple(sorted(a.members) for a in witness.axes)
    if isinstance(witness, ConcreteSet):
        return sorted(witness.members)
    return tuple(_plain(w) for w in witness)


# check -> its verdict with no fault planted
CLEAN = {
    "meets-exhaustive": (True, 65536, None),
    "galois-exhaustive": (True, 32768, None),
    "meets-sampled": (True, 2000, None),
    "galois-sampled": (True, 2000, None),
}
UNCALLED = {"meet", "leq"}  # faults of methods the checks do not call


@pytest.mark.parametrize("fault, check", sorted(EXPECTED))
def test_planted_fault_verdict(monkeypatch, fault, check):
    owner, name, wrong = FAULTS[fault]
    monkeypatch.setattr(owner, name, wrong)
    fn, axes, sample = CHECKS[check]
    res = fn(axes, sample=sample)
    expected = CLEAN[check] if fault in UNCALLED else EXPECTED[fault, check]
    assert (res.ok, res.checked, _plain(res.witness)) == expected
    assert res.note == ""


def test_planted_meet_fault_witness_reads_as_sets(monkeypatch):
    # the meet check's witness under the iota fault
    monkeypatch.setattr(cartesian, "_iota_mask", iota_drops_a_point)
    res = check_iota_preserves_meets(((0, 3), (0, 3)))
    pair = "Rectangle({1} x {0}), Rectangle({1, 2} x {0})"
    assert repr(res.witness) == f"({pair})"
    assert f"witness=({pair})" in repr(res)


def _count(monkeypatch, owner, name: str) -> list:
    """Record the arguments of every call to ``owner.name``."""
    calls = []
    wrapped = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _window(axes):
    target = tuple_universe(ConcreteUniverse.window(lo, hi) for lo, hi in axes)
    return target, list(cartesian._all_rectangles(target.axis(), len(axes)))


def naive_meets(axes):
    """The exhaustive meet check, one pair at a time: each pair's meet is
    looked up in the table of images, and mapped if it is none of the
    rectangles."""
    target, rects = _window(axes)
    images = {x.masks: cartesian._iota_mask(x, target) for x in rects}
    checked = 0
    for x in rects:
        for y in rects:
            checked += 1
            m = x.meet(y)
            lhs = images.get(m.masks)
            if lhs is None:
                lhs = cartesian._iota_mask(m, target)
            if lhs != images[x.masks] & images[y.masks]:
                return False, checked, (x, y)
    return True, checked, None


def naive_galois(axes):
    """The exhaustive Galois check, one pair at a time, with no order row
    kept."""
    target, rects = _window(axes)
    images = [cartesian._iota_mask(x, target) for x in rects]
    checked = 0
    for rm in range(1 << len(target)):
        r = target.subset(target.points_of(rm))
        closure = cartesian.rectangle_closure(r)
        for x, ix in zip(rects, images):
            checked += 1
            if closure.componentwise_leq(x) != (rm & ix == rm):
                return False, checked, (r, x)
    return True, checked, None


NAIVE = {check_iota_preserves_meets: naive_meets, check_galois: naive_galois}


@pytest.mark.parametrize("fault, check", sorted(
    key for key in EXPECTED if CHECKS[key[1]][2] is None))
def test_pinned_exhaustive_verdict_is_the_naive_loops(monkeypatch, fault, check):
    owner, name, wrong = FAULTS[fault]
    monkeypatch.setattr(owner, name, wrong)
    fn, axes, _ = CHECKS[check]
    ok, checked, witness = NAIVE[fn](axes)
    assert (ok, checked, _plain(witness)) == EXPECTED[fault, check]


ROW_AXES = ((0, 2), (0, 2))  # 64 rectangles, 512 regions
FULL = 63  # the key of the full rectangle, the last of every row


def full_image_drops_a_point(rect, target):
    # the full rectangle's image loses its least point, (0, 0): a pair
    # (x, full) fails when iota(x) holds that point, and a pair (r, full)
    # when the region r does
    image = iota_mask(rect, target)
    return image & (image - 1) if rect.key == FULL else image


def closure_wrong_in_last_row(r):
    # the full region's closure is full; it is made empty
    c = rectangle_closure(r)
    return cartesian._keyed(c.axis, c.dim, 0) if len(r) == len(r.universe) else c


# With meet the keys' &, the statement of the meet check is symmetric: a
# pair (full, y) of the last row fails only if (y, full) failed at the end
# of an earlier row, so no fault puts the meet check's first failure in its
# last row.
ROW_FAULTS = {
    # name: (owner, attribute, fault, check, its naive loop, where it fails)
    "meets-row-end": (cartesian, "_iota_mask", full_image_drops_a_point,
                      check_iota_preserves_meets, naive_meets, "row end"),
    "galois-row-end": (cartesian, "_iota_mask", full_image_drops_a_point,
                       check_galois, naive_galois, "row end"),
    "galois-last-row": (cartesian, "rectangle_closure", closure_wrong_in_last_row,
                        check_galois, naive_galois, "last row"),
}


@pytest.mark.parametrize("name", sorted(ROW_FAULTS))
def test_row_fault_is_found_at_the_first_failing_pair(monkeypatch, name):
    owner, attribute, fault, check, naive, where = ROW_FAULTS[name]
    monkeypatch.setattr(owner, attribute, fault)
    mapped = _count(monkeypatch, cartesian, "_iota_mask")
    expected = naive(ROW_AXES)
    naive_mapped = [rect.key for rect, _ in mapped]
    del mapped[:]
    res = check(ROW_AXES)
    assert (res.ok, res.checked, res.witness) == expected
    # every rectangle the naive loop maps up to the failing pair is mapped,
    # once per distinct key, in the order the naive loop first maps it
    assert [rect.key for rect, _ in mapped] == list(dict.fromkeys(naive_mapped))
    row, rows = 64, 64 if check is check_iota_preserves_meets else 512
    ok, checked, _ = expected
    assert not ok
    if where == "row end":
        assert checked % row == 0 and checked < rows * row
    else:
        assert checked == (rows - 1) * row + 1


def test_meet_check_maps_each_rectangle_once(monkeypatch):
    calls = _count(monkeypatch, cartesian, "_iota_mask")
    res = check_iota_preserves_meets(((0, 3), (0, 3)))
    assert res.ok and res.checked == 256 * 256
    # every meet of two rectangles is one of the 256, so none is missing
    assert len(calls) == 256


def test_galois_check_maps_each_rectangle_once(monkeypatch):
    calls = _count(monkeypatch, cartesian, "_iota_mask")
    res = check_galois(((0, 2), (0, 2)))
    assert res.ok and res.checked == 512 * 64
    assert len(calls) == 64


def test_galois_check_closes_every_region(monkeypatch):
    calls = _count(monkeypatch, cartesian, "rectangle_closure")
    res = check_galois(((0, 2), (0, 2)))
    assert res.ok and len(calls) == 512
    assert len({r.members for (r,) in calls}) == 512


def test_galois_check_runs_with_its_defaults():
    res = check_galois()
    assert res.ok and res.checked == 512 * 64


def _aliased(rect, dim):
    """A rectangle with the same axis and key but ``dim`` axes."""
    return cartesian._keyed(rect.axis, dim, rect.key)


def test_closure_aliasing_a_kept_row_is_ordered_again(monkeypatch):
    # from the second region on, each closure is the first one, the empty
    # region's, with a third axis: its key, 0, has an order row kept
    closed = []

    def first_closure_with_a_third_axis(r):
        closed.append(rectangle_closure(r))
        return closed[0] if len(closed) == 1 else _aliased(closed[0], 3)

    monkeypatch.setattr(cartesian, "rectangle_closure",
                        first_closure_with_a_third_axis)
    with pytest.raises(InvalidConcretization, match="different numbers of axes"):
        check_galois(((0, 1), (0, 1)))
    assert len(closed) == 2


def test_injectivity_check_refuses_a_large_window_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("the rectangles were enumerated")

    monkeypatch.setattr(cartesian, "_all_rectangles", no_enumeration)
    with pytest.raises(CarrierTooLarge) as exc:
        check_iota_injective_on_nonempty((0, 30))
    message = str(exc.value)
    assert f"at most {MAX_INJECTIVE_AXIS_POINTS} points in all" in message
    assert "got 62 points" in message


def test_injectivity_check_reads_empty_axes_off_the_keys(monkeypatch):
    # iota keeps the point (0, 0) of a rectangle with one empty axis: such
    # rectangles, with nonzero keys, collide with each other and with
    # {0} x {0}, and each collision still involves an empty axis
    def empty_axis_keeps_a_point(rect, target):
        image = iota_mask(rect, target)
        return image or (1 if rect.key else 0)

    monkeypatch.setattr(cartesian, "_iota_mask", empty_axis_keeps_a_point)
    res = check_iota_injective_on_nonempty((0, 3))
    assert (res.ok, res.checked, res.note) == (True, 256, "30 empty-axis collisions")


def test_injectivity_check_accepts_a_window_at_the_bound():
    half = MAX_INJECTIVE_AXIS_POINTS // 2
    res = check_iota_injective_on_nonempty((0, half - 1))
    assert res.ok and res.checked == 2 ** MAX_INJECTIVE_AXIS_POINTS


@pytest.mark.parametrize("axes, shape", [
    (((0, 10),), "2^11 regions x 2^11 rectangles"),
    (((0, 3), (0, 3)), "2^16 regions x 2^8 rectangles"),
])
def test_galois_check_refuses_a_large_window_before_enumerating(
        monkeypatch, axes, shape):
    def no_enumeration(*args):
        raise AssertionError("the rectangles were enumerated")

    monkeypatch.setattr(cartesian, "_all_rectangles", no_enumeration)
    with pytest.raises(CarrierTooLarge) as exc:
        check_galois(axes)
    message = str(exc.value)
    assert f"at most {MAX_GALOIS_PAIRS} pairs" in message
    assert shape in message and "pass sample=" in message


def test_galois_check_accepts_a_window_at_the_bound():
    res = check_galois(((0, 9),))  # 2^10 regions x 2^10 rectangles
    assert res.ok and res.checked == MAX_GALOIS_PAIRS


def test_meet_check_accepts_a_window_within_the_bound():
    res = check_iota_preserves_meets(((0, 3), (0, 3)))  # 4 + 4 points
    assert res.ok and res.checked == (2 ** 4 * 2 ** 4) ** 2


@pytest.mark.parametrize("axes, shape", [
    (((0, 5), (0, 5)), "2 axes with 12 points"),
    (((0, 1),) * 3, "3 axes with 6 points"),
])
def test_meet_check_refusal_states_the_bound(axes, shape):
    with pytest.raises(CarrierTooLarge) as exc:
        check_iota_preserves_meets(axes)
    message = str(exc.value)
    assert f"two axes with at most {MAX_MEET_AXIS_POINTS} points in all" in message
    assert shape in message


def test_meet_check_axes_share_one_window():
    # 7 + 3 points are within the bound, but unequal windows have no
    # product universe
    with pytest.raises(InvalidConcretization, match="axis windows differ"):
        check_iota_preserves_meets(((0, 6), (0, 2)))


SAMPLED = ((0, 2),) * 3  # the 3-D window of the sampled checks above


@pytest.mark.parametrize("check", [check_iota_preserves_meets, check_galois])
def test_sampled_check_maps_each_rectangle_once(monkeypatch, check):
    calls = _count(monkeypatch, cartesian, "_iota_mask")
    res = check(SAMPLED, sample=2000)
    assert res.ok and res.checked == 2000
    mapped = [x.masks for x, _ in calls]
    # 8 ** 3 rectangles exist on the window; each is mapped at most once
    assert len(mapped) == len(set(mapped)) <= 8 ** 3


@pytest.mark.parametrize("check, owner, name", [
    (check_galois, cartesian, "rectangle_closure"),
])
def test_sampled_check_calls_what_it_checks_once_per_sample(
        monkeypatch, check, owner, name):
    calls = _count(monkeypatch, owner, name)
    res = check(SAMPLED, sample=2000)
    assert res.ok and len(calls) == res.checked == 2000


@pytest.mark.parametrize("check", [check_iota_preserves_meets, check_galois])
@pytest.mark.parametrize("sample", [0, -1])
def test_sampled_check_refuses_a_count_below_one(check, sample):
    # a passing verdict that checked nothing would read as a pass
    with pytest.raises(AbslogError, match=f"at least 1 sample, got {sample}"):
        check(SAMPLED, sample=sample)


# sha256 of the sorted members of every sampled (x, y) of the meet check and
# every (r, x) of the Galois check on ((0, 2),) * 3 at sample=2000 and the
# default rng_seed 20240811; recorded with the checks that drew each axis
# point by point into a fresh set
SAMPLES_DIGEST = "8f07be53b22853215114917cd6e50cde54575d490e5c5e2dcc08e2f667738797"


def test_sampled_checks_draw_the_pinned_samples(monkeypatch):
    # the drawn pairs are read off the rows the checks hand to the scan
    drawn = []
    scan = cartesian._scan

    def recording(rows, fails):
        def recorded():
            for u, vs, passed in rows:
                drawn.extend((_plain(u), _plain(v)) for v in vs)
                yield u, vs, passed

        return scan(recorded(), fails)

    monkeypatch.setattr(cartesian, "_scan", recording)
    assert check_iota_preserves_meets(SAMPLED, sample=2000).ok
    assert check_galois(SAMPLED, sample=2000).ok
    assert len(drawn) == 4000
    digest = hashlib.sha256(repr(drawn).encode()).hexdigest()
    assert digest == SAMPLES_DIGEST
