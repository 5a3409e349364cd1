"""Exact symbolic mould calculus at finite truncation depth."""

from .algebra import (
    ExponentOverflowError,
    LinearForm,
    NotDivisibleError,
    Polynomial,
    RationalFunction,
    ZeroDenominatorError,
    x_var,
)
from .moulds import (
    DepthExceededError,
    Mould,
    NotDefinedError,
    NotInvertibleError,
    Word,
    canonical_word,
    dur,
    dur_scale,
    dur_unscale,
    equal_mod_depth,
    leng,
    lu,
    mould_from_json,
    mould_to_json,
    mu,
    mu_exp,
    mu_inverse,
    mu_log,
    neg,
    sharp,
    shuffle,
    word,
)
from .flexions import (
    adari,
    ari,
    arit,
    expari,
    flexion_down,
    flexion_up,
    gari,
    garit,
    invgari,
    logari,
    preari,
    preari_n,
)
from .symmetry import (
    Dimould,
    dimould_mu,
    is_alternal,
    is_symmetral,
    sh_map,
    tensor,
)
from .special import (
    bernoulli,
    dupal,
    mupaj,
    paj,
    pal,
    s_prime,
    sa,
    sang,
    sang_expanded,
    slang,
    slang_split,
)
from .solutions import (
    D_ab,
    luma,
    psi_minus1,
    psi_odd,
    sigma_c,
    verify_comparison_theorem,
    verify_psi_minus1_theorem,
    verify_psi_odd_theorem,
    x_AB,
    xi,
    xi_prime,
)
from .verify import run_claim

__version__ = "0.1.0"
