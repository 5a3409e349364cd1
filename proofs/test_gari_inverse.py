"""gari(S, invgari(S)) = gari(invgari(S), S) = 1 on an opaque S at depth 8.

Each value of S is a free symbol, so both identities hold for every S of
the gari group; the tier-1 suite runs the same proof at depth 5.  At depth
8 it goes through every flexion sum the solver and the group law use
(``garit_at``, ``mu_at`` and the mu-inverse).  The right inverse holds
whatever ``garit_at`` computes, because gari(S, invgari(S)) reads the
twisted action that the solver defines invgari(S) by, the node it built;
the left inverse reads an action the solver never computes, so it is the
side that checks ``garit_at``.  Both sides take about 5 s and 650 MB
(peak RSS) on a 2-vCPU x86-64 host with Python 3.11.7.  It sits outside
the tier-1 ``testpaths``, and CI runs it on every Python version of the
tier-1 matrix as a step of its own:

    python -m pytest proofs/test_gari_inverse.py -q
"""

from helpers import prove_gari_inverse


def test_gari_inverse_holds_at_depth_8():
    prove_gari_inverse(8)
