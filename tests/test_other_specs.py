"""End-to-end certification for the other Section 2.2 problems.

The same staged pipeline — derivation, transformation, FDS/interproc —
runs unchanged for GRP, IMP and AOP: only the Easl specification differs.
"""

import pytest

from repro.api import CertifySession
from repro.lang import parse_program
from repro.runtime import explore


class TestGrp:
    BAD = """
class Main {
  static void main() {
    Graph g = new Graph();
    Traversal t1 = g.traverse();
    t1.next();
    Traversal t2 = g.traverse();
    if (?) { t1.next(); }
    t2.next();
  }
}
"""
    GOOD = """
class Main {
  static void main() {
    Graph g = new Graph();
    Graph h = new Graph();
    Traversal t1 = g.traverse();
    Traversal t2 = h.traverse();
    t1.next();
    t2.next();
  }
}
"""

    def test_preempted_traversal_flagged(self, grp_specification):
        report = CertifySession(grp_specification, "fds").certify(self.BAD)
        assert sorted(report.alarm_lines()) == [8]

    def test_ground_truth_agrees(self, grp_specification):
        program = parse_program(self.BAD, grp_specification)
        truth = explore(program)
        assert sorted(truth.failing_lines()) == [8]

    def test_independent_graphs_certified(self, grp_specification):
        report = CertifySession(grp_specification, "fds").certify(self.GOOD)
        assert report.certified

    def test_interproc_engine_works(self, grp_specification):
        source = """
class Main {
  static Graph g;
  static void main() {
    g = new Graph();
    Traversal t = g.traverse();
    preempt();
    t.next();
  }
  static void preempt() { Traversal u = g.traverse(); }
}
"""
        report = CertifySession(grp_specification, "interproc").certify(source)
        assert sorted(report.alarm_lines()) == [8]


class TestImp:
    MIXED = """
class Main {
  static void main() {
    Factory f1 = new Factory();
    Factory f2 = new Factory();
    Widget w = f1.makeWidget();
    Gadget g = f2.makeGadget();
    f1.combine(w, g);
  }
}
"""
    MATCHED = """
class Main {
  static void main() {
    Factory f = new Factory();
    Widget w = f.makeWidget();
    Gadget g = f.makeGadget();
    f.combine(w, g);
  }
}
"""

    def test_cross_factory_combine_flagged(self, imp_specification):
        report = CertifySession(imp_specification, "fds").certify(self.MIXED)
        assert sorted(report.alarm_lines()) == [8]

    def test_matched_factory_certified(self, imp_specification):
        report = CertifySession(imp_specification, "fds").certify(self.MATCHED)
        assert report.certified

    def test_wrong_receiver_flagged(self, imp_specification):
        source = """
class Main {
  static void main() {
    Factory f1 = new Factory();
    Factory f2 = new Factory();
    Widget w = f1.makeWidget();
    Gadget g = f1.makeGadget();
    f2.combine(w, g);
  }
}
"""
        report = CertifySession(imp_specification, "fds").certify(source)
        assert not report.certified

    def test_truth_matches_certifier(self, imp_specification):
        program = parse_program(self.MIXED, imp_specification)
        truth = explore(program)
        report = CertifySession(imp_specification, "fds").certify(self.MIXED)
        assert truth.compare(report.alarm_sites()).exact


class TestAop:
    ALIEN = """
class Main {
  static void main() {
    Graph g1 = new Graph();
    Graph g2 = new Graph();
    Vertex a = g1.addVertex();
    Vertex b = g2.addVertex();
    g1.addEdge(a, b);
  }
}
"""
    OWNED = """
class Main {
  static void main() {
    Graph g = new Graph();
    Vertex a = g.addVertex();
    Vertex b = g.addVertex();
    g.addEdge(a, b);
  }
}
"""

    def test_alien_vertex_flagged(self, aop_specification):
        report = CertifySession(aop_specification, "fds").certify(self.ALIEN)
        assert sorted(report.alarm_lines()) == [8]

    def test_owned_vertices_certified(self, aop_specification):
        report = CertifySession(aop_specification, "fds").certify(self.OWNED)
        assert report.certified

    def test_truth_matches_certifier(self, aop_specification):
        program = parse_program(self.ALIEN, aop_specification)
        truth = explore(program)
        report = CertifySession(aop_specification, "fds").certify(self.ALIEN)
        assert truth.compare(report.alarm_sites()).exact

    @pytest.mark.parametrize("engine", ["relational", "interproc"])
    def test_other_engines_agree(self, engine, aop_specification):
        fds = CertifySession(aop_specification, "fds").certify(self.ALIEN)
        other = CertifySession(aop_specification, engine).certify(self.ALIEN)
        assert fds.alarm_sites() == other.alarm_sites()
