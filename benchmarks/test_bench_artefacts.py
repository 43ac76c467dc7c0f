"""Every section of the report, regenerated at the ``default`` preset.

One benchmark per ``repro.experiments.report.SECTIONS`` key: the timing
is the wall-clock cost of regenerating that artefact, ``extra_info``
carries its rendered text, claims and seconds, and the test fails when
any claim is false.
"""

import pytest

from repro.experiments.report import SECTIONS, run_section


@pytest.mark.parametrize("key", list(SECTIONS))
def test_artefact(benchmark, run_once, key):
    section = run_once(run_section, key, "default")
    benchmark.extra_info.update({
        "section": key,
        "text": section.text,
        "claims": [claim._asdict() for claim in section.claims],
        "seconds": round(section.seconds, 2),
    })
    assert not [claim for claim in section.claims if not claim.holds]
