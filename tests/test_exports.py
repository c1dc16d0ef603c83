"""The package's public names: every export resolves."""

import bathysurvey


def test_every_export_resolves():
    missing = [name for name in bathysurvey.__all__ if not hasattr(bathysurvey, name)]
    assert missing == []


def test_star_import():
    ns = {}
    exec("from bathysurvey import *", ns)
    assert set(bathysurvey.__all__) <= set(ns)
