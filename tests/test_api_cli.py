"""Tests for the facade API and the command-line interface."""


from repro import CertifySession
from repro.cli import main
from repro.suite import by_name

FIG3 = by_name("fig3").source


class TestApi:
    def test_certify_source_auto(self, cmp_specification):
        report = CertifySession(cmp_specification).certify(FIG3)
        assert sorted(report.alarm_lines()) == [10, 13]

    def test_abstraction_cache_reuses(self, cmp_specification):
        session = CertifySession(cmp_specification)
        assert session.abstraction() is session.abstraction()

    def test_report_describe_readable(self, cmp_specification):
        report = CertifySession(cmp_specification, "fds").certify(FIG3)
        text = report.describe()
        assert "Iterator.next" in text and "line 10" in text

    def test_certified_program_verdict(self, cmp_specification):
        report = CertifySession(cmp_specification, "fds").certify(
            by_name("scanner").source
        )
        assert report.certified
        assert "CERTIFIED" in report.describe()


class TestCli:
    def test_certify_file(self, tmp_path, capsys):
        client = tmp_path / "client.jl"
        client.write_text(FIG3)
        exit_code = main([str(client), "--engine", "fds"])
        output = capsys.readouterr().out
        assert exit_code == 1  # violations found
        assert "line 10" in output

    def test_certified_exit_code_zero(self, tmp_path, capsys):
        client = tmp_path / "ok.jl"
        client.write_text(by_name("scanner").source)
        assert main([str(client), "--engine", "fds"]) == 0

    def test_show_abstraction(self, capsys):
        assert main(["--show-abstraction", "--spec", "cmp"]) == 0
        output = capsys.readouterr().out
        assert "stale" in output and "families" not in output.lower()[:1]

    def test_ground_truth_flag(self, tmp_path, capsys):
        client = tmp_path / "client.jl"
        client.write_text(FIG3)
        main([str(client), "--engine", "fds", "--ground-truth"])
        output = capsys.readouterr().out
        assert "false alarm" in output

    def test_missing_client_errors(self, capsys):
        assert main([]) == 2

    def test_other_spec_selection(self, tmp_path):
        client = tmp_path / "grp.jl"
        client.write_text(
            """
class Main {
  static void main() {
    Graph g = new Graph();
    Traversal t = g.traverse();
    Traversal u = g.traverse();
    t.next();
  }
}
"""
        )
        assert main([str(client), "--spec", "grp", "--engine", "fds"]) == 1
