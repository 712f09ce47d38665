"""SVG figure builders for the Monte-Carlo harness outputs."""

from __future__ import annotations

import math

from ._files import replace_text
from .exceptions import DomainError
from .metrics import LambdaBounds
from .svgfig import Panel, document, fmt

#: Offset used on the threshold axis so lambda = 0 is plottable on a log scale.
LAMBDA_AXIS_OFFSET = 1e-5

_PANEL_W = 270.0
_PANEL_H = 200.0
_MARGIN = 56.0
_GAP = 48.0


def lambda_axis(lam: float) -> float:
    return math.log10(lam + LAMBDA_AXIS_OFFSET)


def _angle_color(angle_deg: float) -> str:
    """Green at 0 degrees through amber to red at 90."""
    t = min(max(angle_deg / 90.0, 0.0), 1.0)
    r = int(40 + 180 * t)
    g = int(160 - 120 * t)
    b = 40
    return f"#{r:02x}{g:02x}{b:02x}"


def sweep_figure(
    pair: tuple[float, float],
    curves: list[list[tuple[float, float, float, float]]],
    bic_points: list[tuple[float, float, float, float]],
    bounds: LambdaBounds | None,
    path,
) -> None:
    """Three-panel sweep figure: angle / Type I / Type II against log10(lambda).

    ``curves`` holds one polyline per replication as (lambda, angle, type1,
    type2) tuples; ``bic_points`` are the BIC-selected markers in the same
    layout.  Vertical dashed/solid lines mark the theorem threshold range
    when it is non-empty; otherwise a warning annotation is rendered.
    """
    if not curves or any(len(c) < 1 for c in curves):
        raise DomainError("sweep figure needs at least one non-empty lambda sweep")
    alpha, beta = pair
    xs_all = [lambda_axis(p[0]) for c in curves for p in c]
    xlim = (min(xs_all), max(xs_all) if max(xs_all) > min(xs_all) else min(xs_all) + 1.0)

    specs = [
        ("panel-A", "(A) angle to u1", "angle (degrees)", (0.0, 90.0), 1),
        ("panel-B", "(B) Type I error", "Type I", (0.0, 1.0), 2),
        ("panel-C", "(C) Type II error", "Type II", (0.0, 1.0), 3),
    ]
    panels = []
    for k, (pid, title, ylabel, ylim, col) in enumerate(specs):
        pn = Panel(
            panel_id=pid,
            x0=_MARGIN + k * (_PANEL_W + _GAP),
            y0=46.0,
            width=_PANEL_W,
            height=_PANEL_H,
            xlim=xlim,
            ylim=ylim,
            title=title,
            xlabel="log10(lambda + 1e-5)",
            ylabel=ylabel,
        )
        for curve in curves:
            xs = [lambda_axis(p[0]) for p in curve]
            ys = [p[col] for p in curve]
            pn.add_polyline(xs, ys, opacity=0.35, cls="rep")
        if bounds is not None and not bounds.is_empty:
            pn.add_vline(lambda_axis(bounds.lower), dash="5,4", cls="bound-lower")
            pn.add_vline(lambda_axis(bounds.upper), cls="bound-upper")
        elif bounds is not None:
            pn.add_note("threshold range empty at this d")
        else:
            pn.add_note("no admissible threshold range (alpha <= beta)")
        for p in bic_points:
            pn.add_circle(lambda_axis(p[0]), p[col], cls="bic")
        panels.append(pn.render())

    width = _MARGIN + 3 * _PANEL_W + 2 * _GAP + 24
    title = f"alpha={alpha:g}, beta={beta:g}"
    replace_text(path, document(width, 300.0, panels, title))


def phase_figure(entries: list[tuple[float, float, float]], path) -> None:
    """Phase diagram: each (alpha, beta) cell marked by its median angle."""
    if not entries:
        raise DomainError("phase figure needs at least one (alpha, beta, angle) entry")
    pn = Panel(
        panel_id="phase",
        x0=70.0,
        y0=46.0,
        width=360.0,
        height=360.0,
        xlim=(0.0, 1.0),
        ylim=(0.0, 1.0),
        title="median angle at BIC-selected lambda",
        xlabel="spike index alpha",
        ylabel="sparsity index beta",
    )
    # Boundary between the consistent and strongly inconsistent regions.
    pn.add_polyline([0.0, 1.0], [0.0, 1.0], stroke="#202020", width=1.0, opacity=1.0, dash="3,3")
    for alpha, beta, angle in entries:
        pn.add_circle(alpha, beta, r=9.0, fill=_angle_color(angle), opacity=0.9, cls="pair")
        px, py = pn.px(alpha), pn.py(beta)
        pn.elements.append(
            f'<text x="{fmt(px)}" y="{fmt(py - 11)}" font-size="8" text-anchor="middle" '
            f'fill="#202020">{angle:.0f}</text>'
        )
    replace_text(path, document(500.0, 470.0, [pn.render()], "consistency phase diagram"))


def counterexample_figure(
    dims: list[int],
    empirical: list[float],
    predicted: list[float],
    path,
) -> None:
    """Empirical spike-recovery frequency against the predicted decay curve."""
    if not dims or len(dims) != len(empirical) or len(dims) != len(predicted):
        raise DomainError("dims, empirical, predicted must be equal-length and non-empty")
    floor = 1e-6
    xs = [math.log10(d) for d in dims]
    ye = [math.log10(max(v, floor)) for v in empirical]
    yp = [math.log10(max(v, floor)) for v in predicted]
    lo = min(ye + yp) - 0.3
    hi = max(ye + yp) + 0.3
    pn = Panel(
        panel_id="counterexample",
        x0=70.0,
        y0=46.0,
        width=420.0,
        height=280.0,
        xlim=(min(xs) - 0.1, max(xs) + 0.1),
        ylim=(lo, hi),
        title="P(argmax |u_hat_i| = 1): empirical vs predicted",
        xlabel="log10(d)",
        ylabel="log10(frequency)",
    )
    pn.add_polyline(xs, yp, stroke="#303030", width=1.2, opacity=1.0, dash="5,4", cls="predicted")
    pn.add_polyline(xs, ye, stroke="#4878a8", width=1.5, opacity=1.0, cls="empirical")
    for x, y in zip(xs, ye):
        pn.add_circle(x, y, r=3.0, cls="empirical-pt")
    replace_text(path, document(540.0, 390.0, [pn.render()], "non-Gaussian counterexample"))
