"""Exact computation in cactus groups."""

from .cactus import (
    CactusLetter,
    CactusWord,
    ReadResult,
    canonical,
    cocycle_product,
    commute,
    conjugate,
    equal,
    exchange_left,
    geodesic_length,
    is_pure,
    is_trivial,
    order,
    pad,
    read_diagram,
    reduce,
    s_image,
    torsion_witness,
    word,
)
from .perm import Permutation
from .presentation import Presentation, abelianization, builtin, tietze_simplify
from .racg import GaussLetter, GaussWord, racg_canonical, racg_equal, racg_reduce, tau
from .rschreier import build_transversal, rs_generators, rs_presentation, verify_pj4
from .subgroups import (
    IntervalCollection,
    eraser_slice,
    eraser_width,
    is_member,
    is_symmetric,
    kernel_decompose,
    symmetric_closure,
)
from .syntax import (
    BoundsError,
    WordSyntaxError,
    format_cactus_word,
    format_gauss_word,
    format_presentation,
    parse_cactus_word,
    parse_gauss_word,
    parse_presentation,
)

__version__ = "0.1.0"
