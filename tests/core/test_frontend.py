"""Sanity checks on the dashboard's static assets.

The frontend is plain HTML/CSS/JS served by the backend; these tests
keep it consistent with the API surface (every endpoint the JS calls
must be in the server's route table, and vice versa for the views)."""

import re
from pathlib import Path

import pytest

from repro.core.server import route_rows

STATIC = Path(__file__).parents[2] / "src" / "repro" / "core" / "static"


@pytest.fixture(scope="module")
def assets():
    return {
        "html": (STATIC / "index.html").read_text(),
        "js": (STATIC / "app.js").read_text(),
        "css": (STATIC / "style.css").read_text(),
    }


def test_static_files_exist():
    for name in ("index.html", "app.js", "style.css"):
        assert (STATIC / name).is_file()


def test_html_references_assets(assets):
    assert "/static/style.css" in assets["html"]
    assert "/static/app.js" in assets["html"]


def test_html_has_every_paper_view(assets):
    html = assets["html"]
    # Figure 2's labelled regions.
    for marker in ("Resources",             # A
                   "btn-pause",             # C: controls
                   "tree",                  # B/D: component tree
                   "detail",                # D: component details
                   "arc-diagram",           # E: profiling arc diagram
                   "buffer-table",          # E: bottleneck analyzer
                   "charts",                # F: value monitoring
                   "progress-bars",         # G: progress strip
                   "btn-kickstart",
                   "btn-tick",
                   "alerts",                # fail-fast rules panel
                   "throttle"):             # §V-C slow-down control
        assert marker in html, f"dashboard misses {marker}"


def test_js_calls_only_existing_endpoints(assets):
    called = set(re.findall(r"/api/[a-z/]+", assets["js"]))
    served = {spec.partition("?")[0] for _, spec, _, _ in route_rows()}
    unknown = {c.rstrip("/") for c in called} - served
    assert not unknown, f"frontend calls unknown endpoints: {unknown}"


def test_js_covers_core_views(assets):
    js = assets["js"]
    for endpoint in ("/api/overview", "/api/resources", "/api/components",
                     "/api/component", "/api/buffers", "/api/progress",
                     "/api/watches", "/api/profile", "/api/hang",
                     "/api/pause", "/api/continue", "/api/kickstart",
                     "/api/tick", "/api/alerts", "/api/throttle"):
        assert endpoint in js, f"dashboard never uses {endpoint}"


def test_progress_bar_has_three_segments(assets):
    """Paper: green/blue/gray = finished/executing/not-started."""
    assert 'class="done"' in assets["js"]
    assert 'class="ongoing"' in assets["js"]
    for var in ("--green", "--blue", "--gray"):
        assert var in assets["css"]
