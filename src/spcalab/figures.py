"""SVG figures of the Monte-Carlo studies, with no dependencies.

Static, self-contained output: every figure is a single .svg file with no
scripts, fonts, or external references, so the files diff cleanly in review
and render anywhere.  Every element is written by ``_element``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._files import replace_text
from .exceptions import DomainError
from .theory import LambdaBounds

#: Offset used on the threshold axis so lambda = 0 is plottable on a log scale.
LAMBDA_AXIS_OFFSET = 1e-5

_PANEL_W = 270.0
_PANEL_H = 200.0
_MARGIN = 56.0
_GAP = 48.0
_INK = "#202020"


def fmt(x: float) -> str:
    """Compact coordinate formatting (2 decimals, no trailing zeros)."""
    s = f"{x:.2f}"
    if s[-1] != "0":  # most coordinates: nothing to strip
        return s
    s = s.rstrip("0").rstrip(".")
    return s if s not in ("-0", "") else "0"


#: Attribute names as written: ``_`` becomes ``-`` and ``class_`` is ``class``.
_NAMES: dict[str, str] = {}


def _element(tag: str, content: str | list[str] | None = None, **attrs) -> str:
    """One SVG element, its attributes in call order (numbers through ``fmt``, None left out).

    ``content`` None closes the tag at once; a str is escaped text; a list
    holds child elements, one per line.
    """
    out = "<" + tag
    for name, v in attrs.items():
        if v is not None:
            key = _NAMES.get(name) or _NAMES.setdefault(name, name.rstrip("_").replace("_", "-"))
            out += f' {key}="{v if type(v) is str else fmt(v)}"'
    if content is None:
        return out + "/>"
    close = "</" + tag + ">"
    if type(content) is str:
        text = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        return out + ">" + text + close
    return "\n".join([out + ">", *content, close])


def _text(x, y, size, text, anchor="middle", transform=None) -> str:
    """A text element in the figures' ink: labels, ticks, titles, the caption."""
    return _element("text", text, x=x, y=y, font_size=size, text_anchor=anchor,
                    transform=transform, fill=_INK)


def nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick locations (1/2/5 x 10^k steps) covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1.0, 2.0, 5.0, 10.0) if raw <= s * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


@dataclass
class Panel:
    """One framed x/y plotting area with linear data-to-pixel transforms."""

    panel_id: str
    x0: float
    y0: float
    width: float
    height: float
    xlim: tuple[float, float]
    ylim: tuple[float, float]
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    elements: list[str] = field(default_factory=list)

    def px(self, x: float) -> float:
        a, b = self.xlim
        span = b - a if b != a else 1.0
        return self.x0 + (x - a) / span * self.width

    def py(self, y: float) -> float:
        a, b = self.ylim
        span = b - a if b != a else 1.0
        return self.y0 + self.height - (y - a) / span * self.height

    def add_polyline(self, xs, ys, stroke="#4878a8", width=1.0, opacity=0.5, dash=None, cls=None):
        pts = " ".join(f"{fmt(self.px(x))},{fmt(self.py(y))}" for x, y in zip(xs, ys))
        self.elements.append(_element(
            "polyline", points=pts, fill="none", stroke=stroke, stroke_width=width,
            stroke_opacity=opacity, stroke_dasharray=dash, class_=cls))

    def add_vline(self, x, stroke="#303030", width=1.0, dash=None, cls=None):
        px = self.px(x)
        self.elements.append(_element(
            "line", x1=px, y1=self.py(self.ylim[0]), x2=px, y2=self.py(self.ylim[1]),
            stroke=stroke, stroke_width=width, stroke_dasharray=dash, class_=cls))

    def add_circle(self, x, y, r=2.5, fill="#c03028", opacity=0.7, cls=None):
        self.elements.append(_element("circle", cx=self.px(x), cy=self.py(y), r=r, fill=fill,
                                      fill_opacity=opacity, class_=cls))

    def add_label(self, x, y, text):
        """Small text centred just above the data point (x, y)."""
        self.elements.append(_text(self.px(x), self.py(y) - 11, 8, text))

    def add_note(self, text, cls="warning"):
        self.elements.append(_element("text", text, x=self.x0 + 6, y=self.y0 + 14, class_=cls,
                                      font_size=10, fill="#a03020"))

    def render(self) -> str:
        x0, y0, bottom = self.x0, self.y0, self.y0 + self.height
        out = [_element("rect", x=x0, y=y0, width=self.width, height=self.height, fill="none",
                        stroke=_INK, stroke_width=1)]
        for t in nice_ticks(*self.xlim):
            px = self.px(t)
            out.append(_element("line", x1=px, y1=bottom, x2=px, y2=bottom + 4, stroke=_INK,
                                stroke_width=1))
            out.append(_text(px, bottom + 15, 9, fmt(t)))
        for t in nice_ticks(*self.ylim):
            py = self.py(t)
            out.append(_element("line", x1=x0 - 4, y1=py, x2=x0, y2=py, stroke=_INK,
                                stroke_width=1))
            out.append(_text(x0 - 6, py + 3, 9, fmt(t), anchor="end"))
        cx, cy = x0 + self.width / 2, y0 + self.height / 2
        if self.title:
            out.append(_text(cx, y0 - 8, 11, self.title))
        if self.xlabel:
            out.append(_text(cx, bottom + 30, 10, self.xlabel))
        if self.ylabel:
            out.append(_text(x0 - 34, cy, 10, self.ylabel,
                             transform=f"rotate(-90 {fmt(x0 - 34)} {fmt(cy)})"))
        return _element("g", out + self.elements, id=self.panel_id)


def document(width: float, height: float, parts: list[str], title: str = "") -> str:
    caption = _text(width / 2, 16, 13, title) if title else ""
    bg = _element("rect", x=0, y=0, width=width, height=height, fill="#ffffff")
    return _element("svg", [bg, caption, *parts], xmlns="http://www.w3.org/2000/svg",
                    width=width, height=height,
                    viewBox=f"0 0 {fmt(width)} {fmt(height)}") + "\n"


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
    """Phase diagram: each (alpha, beta) cell marked by its median angle.

    The alpha axis spans [0, 1], or up to the largest alpha when one exceeds 1.
    """
    if not entries:
        raise DomainError("phase figure needs at least one (alpha, beta, angle) entry")
    pn = Panel(
        panel_id="phase",
        x0=70.0,
        y0=46.0,
        width=360.0,
        height=360.0,
        xlim=(0.0, max(1.0, *(alpha for alpha, _, _ in entries))),
        ylim=(0.0, 1.0),
        title="median angle at BIC-selected lambda",
        xlabel="spike index alpha",
        ylabel="sparsity index beta",
    )
    # Boundary between the consistent and strongly inconsistent regions.
    pn.add_polyline([0.0, 1.0], [0.0, 1.0], stroke=_INK, width=1.0, opacity=1.0, dash="3,3")
    for alpha, beta, angle in entries:
        pn.add_circle(alpha, beta, r=9.0, fill=_angle_color(angle), opacity=0.9, cls="pair")
        pn.add_label(alpha, beta, f"{angle:.0f}")
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
