"""Hypothesis profiles.  Tier-1 runs the default one; ``deep`` runs 5000
examples a property with no deadline, for a long run of chosen tests:

    PYTHONPATH=src python -m pytest tests/test_enumerator.py -q \\
        -k "spectrum_from_json or group_reduction or inverted or converted_only" \\
        --hypothesis-profile=deep
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=5000, deadline=None)
