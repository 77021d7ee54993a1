import edgeflight


def test_every_public_name_resolves():
    # a stale entry would otherwise fail only at `from edgeflight import *`
    names = edgeflight.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(edgeflight, n)]
    assert missing == []
