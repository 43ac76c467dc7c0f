"""Every section of the report, run for real: each of its claims must hold.

The paper's claims and their thresholds live in one place,
``repro.experiments.report.SECTIONS``; this module adds none.  One test
per section runs its compute function once under ``TIER1[key]`` and
fails with every false claim and what it measured.  ``TIER1`` is the
``quick`` preset with the same seeds, shrunk where a section's grid has
cells no claim needs.  ``table11`` and ``ablations`` would add about a
minute; they run with ``--slow`` and in CI's ``quick`` report.
``tests/integration/test_paper_claims.py`` reads single claims of the
same runs through ``real_section``.
"""

import functools

import pytest

from repro.experiments import report

_QUICK = report.SCALES["quick"]

#: The parameters each section runs with here.
TIER1 = {
    **_QUICK,
    # Without the n = 16 worst-case run: the sync claims read only the
    # smallest and the largest n.
    "fig6": dict(_QUICK["fig6"], sync_n=(4, 64)),
    # Both 98% crossings at quick are interpolated between 1x and 2x.
    "fig7": dict(_QUICK["fig7"], factors=(1.0, 2.0)),
    # Two claims read the largest n only; the others hold row by row,
    # at any set of n.
    "table10": dict(_QUICK["table10"], n_values=(100,)),
}

_SLOW = {"table11", "ablations"}


@functools.lru_cache(maxsize=None)
def real_section(key):
    """``(result, rendered)`` of section ``key`` under ``TIER1[key]``,
    computed once per session."""
    section = report.SECTIONS[key]
    result = section.run(**TIER1[key])
    return result, report.render_section(section, result)


def test_tier1_has_every_section_and_quick_seeds():
    def seeds(preset):
        return {name: value for name, value in preset.items()
                if name.endswith("seed")}

    assert list(TIER1) == list(report.SECTIONS)
    for key, params in TIER1.items():
        assert seeds(params) == seeds(_QUICK[key]), key


@pytest.mark.parametrize("key", [
    pytest.param(key, marks=pytest.mark.slow) if key in _SLOW else key
    for key in report.SECTIONS])
def test_every_claim_holds(key):
    _, rendered = real_section(key)
    false = [f"{claim.text}: {claim.measured}"
             for claim in rendered.claims if not claim.holds]
    assert not false, "\n".join(false)
    assert rendered.text.startswith(f"## {report.SECTIONS[key].title}\n")
