"""Structural checks on the SVG output (parsed as XML, not rendered)."""

import hashlib
import xml.etree.ElementTree as ET

import pytest

from spcalab.figures import counterexample_figure, phase_figure, sweep_figure
from spcalab.theory import LambdaBounds

SVG_NS = "{http://www.w3.org/2000/svg}"


def _panel(root, panel_id):
    for g in root.iter(f"{SVG_NS}g"):
        if g.get("id") == panel_id:
            return g
    raise AssertionError(f"panel {panel_id} not found")


class TestSweepFigure:
    def test_single_replication_three_lambdas(self, tmp_path):
        curve = [(0.0, 50.0, 0.0, 1.0), (1.0, 20.0, 0.0, 0.1), (5.0, 80.0, 0.8, 0.0)]
        path = tmp_path / "fig.svg"
        sweep_figure((0.6, 0.1), [curve], [], LambdaBounds(1.0, 4.0), path)
        root = ET.fromstring(path.read_text())
        panel_a = _panel(root, "panel-A")
        reps = [
            e for e in panel_a.iter(f"{SVG_NS}polyline") if e.get("class") == "rep"
        ]
        assert len(reps) == 1
        assert len(reps[0].get("points").split()) == 3

    def test_bounds_lines_present_when_nonempty(self, tmp_path):
        curve = [(0.0, 50.0, 0.0, 1.0), (2.0, 10.0, 0.0, 0.0)]
        path = tmp_path / "fig.svg"
        sweep_figure((0.6, 0.1), [curve], [], LambdaBounds(0.5, 1.5), path)
        root = ET.fromstring(path.read_text())
        for pid in ("panel-A", "panel-B", "panel-C"):
            panel = _panel(root, pid)
            classes = [e.get("class") for e in panel.iter(f"{SVG_NS}line")]
            assert "bound-lower" in classes and "bound-upper" in classes

    def test_empty_bounds_render_warning_not_lines(self, tmp_path):
        curve = [(0.0, 50.0, 0.0, 1.0), (2.0, 10.0, 0.0, 0.0)]
        path = tmp_path / "fig.svg"
        sweep_figure((0.6, 0.1), [curve], [], LambdaBounds(9.0, 3.0), path)
        root = ET.fromstring(path.read_text())
        panel = _panel(root, "panel-A")
        classes = [e.get("class") for e in panel.iter(f"{SVG_NS}line")]
        assert "bound-lower" not in classes and "bound-upper" not in classes
        warnings = [
            t for t in panel.iter(f"{SVG_NS}text") if t.get("class") == "warning"
        ]
        assert warnings

    def test_bic_markers(self, tmp_path):
        curve = [(0.0, 50.0, 0.0, 1.0), (2.0, 10.0, 0.0, 0.0)]
        markers = [(2.0, 10.0, 0.0, 0.0), (2.0, 12.0, 0.0, 0.0)]
        path = tmp_path / "fig.svg"
        sweep_figure((0.6, 0.1), [curve, curve], markers, None, path)
        root = ET.fromstring(path.read_text())
        panel = _panel(root, "panel-A")
        circles = [e for e in panel.iter(f"{SVG_NS}circle") if e.get("class") == "bic"]
        assert len(circles) == 2


class TestPhaseFigure:
    def test_marker_per_pair(self, tmp_path):
        entries = [(0.2, 0.7, 88.0), (0.6, 0.1, 5.0), (0.8, 0.3, 12.0)]
        path = tmp_path / "phase.svg"
        phase_figure(entries, path)
        root = ET.fromstring(path.read_text())
        panel = _panel(root, "phase")
        pts = [e for e in panel.iter(f"{SVG_NS}circle") if e.get("class") == "pair"]
        assert len(pts) == 3


class TestCounterexampleFigure:
    def test_two_curves(self, tmp_path):
        path = tmp_path / "ce.svg"
        counterexample_figure([50, 100, 200], [0.004, 0.002, 0.0005], [0.004, 0.0016, 0.0005], path)
        root = ET.fromstring(path.read_text())
        panel = _panel(root, "counterexample")
        classes = [e.get("class") for e in panel.iter(f"{SVG_NS}polyline")]
        assert "empirical" in classes and "predicted" in classes


_CURVES = [
    [(0.0, 50.0, 0.0, 1.0), (0.3, 21.5, 0.05, 0.25), (2.0, 80.0, 0.8, 0.0)],
    [(0.0, 47.25, 0.0, 0.9), (0.3, 12.0, 0.0, 0.125), (2.0, 89.5, 1.0, 0.0)],
]
_MARKERS = [(0.3, 21.5, 0.05, 0.25), (0.3, 12.0, 0.0, 0.125)]


@pytest.mark.parametrize(
    "build, sha",
    [
        (lambda p: sweep_figure((0.6, 0.1), _CURVES, _MARKERS, LambdaBounds(0.1, 1.5), p),
         "dafd258310cb31674cfe56dc4322d269c6ad4c0f9adbddefb8e0735f47b1394c"),
        (lambda p: sweep_figure((0.6, 0.1), _CURVES, _MARKERS, LambdaBounds(9.0, 3.0), p),
         "cf582805e733db0657c9b1fa0f5ac67cd3e2ae4e24f8b0f64756d79dd56020a9"),
        (lambda p: sweep_figure((0.2, 0.7), _CURVES, _MARKERS, None, p),
         "e55d2dfb9b71546faa8fc4486effe90b52f616a8d79711dace1223069b1b023d"),
        (lambda p: phase_figure([(0.2, 0.7, 88.4), (0.6, 0.1, 5.0), (0.8, 0.3, 12.6)], p),
         "4505ab131411130023f94e25b0e2980c3fb3e751376c5ca3627597e40c022e36"),
        (lambda p: counterexample_figure([50, 100, 200], [0.004, 0.002, 0.0],
                                         [0.004, 0.0016, 0.0005], p),
         "901add656789d41a571fc61b901fbe6e9f21461f4042d9e62b10a77206841656"),
    ],
    ids=["sweep-range", "sweep-empty-range", "sweep-no-range", "phase", "counterexample"],
)
def test_figure_bytes_are_pinned(tmp_path, build, sha):
    # Every element kind, each optional attribute and each branch of the
    # sweep figure's threshold range, on fixed inputs.
    path = tmp_path / "fig.svg"
    build(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha
