"""The singulator's four-sum expansion at every depth the singulator admits.

``sang`` takes the expansion for every concrete depth-1-supported mould up
to the singulator's depth limit in ``limits.LIMITS``; this is the proof that
lets it, the tier-1 proof at depth 5 run at the full limit.  It takes about
6 minutes and 1.0 GB (peak RSS) at depth 7 on a 2-vCPU x86-64 host with
Python 3.11.7, so it sits outside the tier-1 ``testpaths``:

    python -m pytest proofs -q
"""

from mouldcalc.limits import LIMITS

from helpers import prove_sang_expansion


def test_sang_expansion_holds_at_the_singulator_depth_limit():
    prove_sang_expansion(LIMITS["singulator", "depth"])
