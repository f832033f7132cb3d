import pytest

from conftest import run_optimized
from fatcob import fixtures as fx
from fatcob.errors import (
    ClosedNotSpecial,
    ClosedSharesCycle,
    InOutOverlap,
    NotALeaf,
    NotAdmissible,
)
from fatcob.graphs import new_fat_graph
from fatcob.openclosed import (
    check_positive_boundary,
    cobordism_signature,
    decorate,
    incoming_partition,
    is_admissible,
)


class TestDecorate:
    def test_open_closed_example(self):
        oc = fx.open_closed_example()
        assert oc.in_leaves == ("v", "z")
        assert oc.out_leaves == ("x", "y")
        assert oc.closed == {"v"}
        assert oc.open_leaves == ("z", "x", "y")

    @staticmethod
    def refused(error, message, g, *roles):
        with pytest.raises(error) as info:
            decorate(g, *roles)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_leaf_listed_twice(self):
        g = fx.interval().base
        for roles in ((["p", "p"], []), ([], ["q", "q"])):
            self.refused(InOutOverlap, "a leaf is listed twice", g, *roles)

    def test_in_out_overlap(self):
        self.refused(InOutOverlap,
                     "leaves ['p'] are both incoming and outgoing",
                     fx.interval().base, ["p"], ["p"])

    def test_not_a_leaf(self):
        self.refused(NotALeaf, "'u' is not a valence-1 vertex",
                     fx.figure4(), ["u"], [])
        # a name that is no vertex has no fan
        self.refused(NotALeaf, "'w' is not a valence-1 vertex",
                     fx.interval().base, ["p"], ["w"])

    def test_closed_not_special(self):
        self.refused(ClosedNotSpecial, "closed leaves ['q'] are not special",
                     fx.interval().base, ["p"], [], {"q"})

    def test_closed_shares_cycle(self):
        self.refused(ClosedSharesCycle,
                     "closed leaf 'p' shares its boundary cycle with ['q']",
                     fx.interval().base, ["p"], ["q"], {"p"})

    def test_leaf_cycle_normal_form(self):
        oc = fx.cylinder()
        assert oc.leaf_cycle_normal_form("p") == ("L.1", "L.0", "a.0")
        assert oc.circle_edges("q") == ("a.1",)

    @pytest.mark.parametrize("read", [
        lambda oc: oc.leaf_cycle_normal_form("u"),
        lambda oc: oc.circle_edges("u"),
        lambda oc: oc.base.leaf_cycle_normal_form("u"),
    ], ids=["decorated", "circle_edges", "base"])
    def test_leaf_cycle_of_a_non_leaf_is_refused(self, read):
        # ``u`` is the cylinder's one inner vertex: bad input, not a
        # broken boundary walk
        with pytest.raises(NotALeaf, match="'u' is not a valence-1 vertex"):
            read(fx.cylinder())


class TestAdmissible:
    def test_embedded_example_xy(self):
        g = fx.embedded_circle_example()
        for closed in ([], ["x"], ["y"], ["x", "y"]):
            oc = decorate(g, closed or ["x"], [], set(closed))
            ok, _ = is_admissible(oc)
            assert ok

    def test_embedded_example_z_fails(self):
        oc = decorate(fx.embedded_circle_example(), ["z"], [], {"z"})
        ok, witness = is_admissible(oc)
        assert not ok
        assert witness.leaf == "z"

    def test_vertex_repeat_witness(self):
        # two triangles wedged at a vertex: six distinct edges, the
        # marked cycle passes the wedge point twice
        g = new_fat_graph(
            ["c", "d1", "d2", "d3", "d4", "p"],
            [("a1", "c", "d1"), ("a2", "d1", "d2"), ("a3", "d2", "c"),
             ("b1", "c", "d3"), ("b2", "d3", "d4"), ("b3", "d4", "c"),
             ("L", "p", "c")],
            {"c": ["L.1", "a1.0", "a3.1", "b1.0", "b3.1"],
             "d1": ["a1.1", "a2.0"], "d2": ["a2.1", "a3.0"],
             "d3": ["b1.1", "b2.0"], "d4": ["b2.1", "b3.0"],
             "p": ["L.0"]})
        oc = decorate(g, ["p"], [], {"p"})
        ok, witness = is_admissible(oc)
        assert not ok
        assert witness.reason == "incoming cycle repeats a vertex"
        assert witness.cell == "c"

    def test_no_closed_incoming_is_vacuous(self):
        ok, _ = is_admissible(fx.flaps())
        assert ok

    def test_disjointness_required(self):
        # two closed incoming leaves marking loop circles through the
        # same vertex; each owns its cycle but the circles intersect
        g = new_fat_graph(
            ["u", "p1", "p2"],
            [("a", "u", "u"), ("b", "u", "u"),
             ("L1", "p1", "u"), ("L2", "p2", "u")],
            {"u": ["L1.1", "a.0", "b.1", "L2.1", "b.0", "a.1"],
             "p1": ["L1.0"], "p2": ["L2.0"]})
        oc = decorate(g, ["p1", "p2"], [], {"p1", "p2"})
        ok, witness = is_admissible(oc)
        assert not ok
        assert "intersect" in witness.reason
        assert witness.cell == "u"

    def test_invariant_under_subdivision(self):
        oc = fx.pants()
        base, _ = oc.base.subdivide_edge("a1")
        ok, _ = is_admissible(oc.with_base(base))
        assert ok

    def test_invariant_under_smoothing(self):
        from fatcob.morphisms import canonical_form
        from fatcob.openclosed import smooth_undecorated_bivalent
        oc = fx.subdivided_incoming(fx.pants(), 4)
        smoothed, _ = smooth_undecorated_bivalent(oc)
        ok, _ = is_admissible(smoothed)
        assert ok
        assert canonical_form(smoothed) == canonical_form(fx.pants())


class TestIncomingPartition:
    def test_cylinder_balance(self):
        part = incoming_partition(fx.cylinder())
        assert part.e_v == ("q",)
        assert part.e_e == ("M",)
        assert part.euler_difference == 0

    def test_pants_balance(self):
        part = incoming_partition(fx.pants())
        assert part.euler_difference == -1
        assert set(part.e_v) == {"q", "w"}
        assert set(part.e_e) == {"M", "r1", "r2"}

    def test_open_only(self):
        part = incoming_partition(fx.flaps())
        assert part.v_in == ("p1", "p2")
        assert part.e_in == ()

    def test_not_admissible_rejected(self):
        oc = decorate(fx.embedded_circle_example(), ["z"], [], {"z"})
        with pytest.raises(NotAdmissible):
            incoming_partition(oc)

    def test_balance_under_subdivision(self):
        oc = fx.pants()
        before = incoming_partition(oc).euler_difference
        base, _ = oc.base.subdivide_edge("r1")
        after = incoming_partition(oc.with_base(base)).euler_difference
        assert before == after == -1


class TestCobordismSignature:
    def test_open_closed_example(self):
        sig = cobordism_signature(fx.open_closed_example())
        assert sig.source == ("circle", "interval")
        assert sig.target == ("interval", "interval")
        assert [c.genus for c in sig.components] == [0]
        assert sig.components[0].boundary_count == 4
        assert sig.components[0].free_cycles == 1

    def test_cylinder(self):
        sig = cobordism_signature(fx.cylinder())
        assert sig.source == ("circle",)
        assert sig.target == ("circle",)
        assert sig.components[0].boundary_count == 2
        assert sig.components[0].genus == 0

    def test_pants(self):
        sig = cobordism_signature(fx.pants())
        assert sig.source == ("circle", "circle")
        assert sig.target == ("circle",)
        assert sig.components[0].boundary_count == 3

    def test_classification_is_partition(self):
        for oc in (fx.cylinder(), fx.pants(), fx.mouthpiece(), fx.flaps(),
                   fx.open_closed_example()):
            sig = cobordism_signature(oc)
            cycles = oc.base.boundary_cycles().cycles
            assert sorted(c.index for c in sig.cycle_classes) == \
                list(range(len(cycles)))


class TestPositiveBoundary:
    def test_disk_with_incoming_circle(self):
        assert not check_positive_boundary(fx.disk_closed_in())

    def test_cylinder(self):
        assert check_positive_boundary(fx.cylinder())

    def test_interval_both_incoming(self):
        assert not check_positive_boundary(fx.interval_in_in())

    def test_component_quantifier(self):
        oc = fx.oc_disjoint_union(fx.cylinder(), fx.disk_closed_in())
        assert not check_positive_boundary(oc)
        oc2 = fx.oc_disjoint_union(fx.cylinder(), fx.cylinder())
        assert check_positive_boundary(oc2)


class TestInternalChecks:
    def test_partition_balance_check_survives_optimize(self):
        # an Euler characteristic off by one unbalances the partition
        script = (
            "from fatcob import fixtures as fx\n"
            "from fatcob.errors import InvariantViolation\n"
            "from fatcob.graphs import FatGraph\n"
            "from fatcob.openclosed import incoming_partition\n"
            "assert False, 'asserts are on'\n"
            "g = fx.pants()\n"
            "chi = FatGraph.euler_characteristic\n"
            "FatGraph.euler_characteristic = lambda self: chi(self) + 1\n"
            "try:\n"
            "    incoming_partition(g)\n"
            "except InvariantViolation as exc:\n"
            "    print('raised', exc)\n")
        out = run_optimized(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("raised incoming partition out of balance")

    def test_cycle_partition_check_survives_optimize(self):
        # a component that loses a boundary cycle breaks the partition
        script = (
            "from fatcob import fixtures as fx\n"
            "from fatcob.errors import InvariantViolation\n"
            "from fatcob.graphs import FatGraph, SurfaceSignature\n"
            "from fatcob.openclosed import cobordism_signature\n"
            "assert False, 'asserts are on'\n"
            "surf = FatGraph.surface_invariants\n"
            "FatGraph.surface_invariants = lambda self: SurfaceSignature(\n"
            "    tuple(c._replace(cycles=c.cycles[1:])\n"
            "          for c in surf(self).components))\n"
            "try:\n"
            "    cobordism_signature(fx.pants())\n"
            "except InvariantViolation as exc:\n"
            "    print('raised', exc)\n")
        out = run_optimized(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith(
            "raised the components' boundary cycles do not partition")
