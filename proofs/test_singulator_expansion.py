"""The singulator's four-sum expansion at every depth the singulator admits.

``sang`` takes the expansion for every concrete depth-1-supported mould up
to ``special.SANG_MAX_DEPTH``; this is the proof that lets it, the tier-1
proof at depth 5 run at the full limit.  It takes about 6 minutes and
2.4 GB at depth 7, so it sits outside the tier-1 ``testpaths``:

    python -m pytest proofs -q
"""

from mouldcalc import special

from helpers import prove_sang_expansion


def test_sang_expansion_holds_at_the_singulator_depth_limit():
    prove_sang_expansion(special.SANG_MAX_DEPTH)
