"""Exact-arithmetic level-1 affine sl(n) characters: bosonic lattice sums,
fermionic spinon cuts, and Yangian border-strip decompositions, plus the
bijections tying the combinatorial labels together."""

from .affine import (
    CharacterTable,
    bosonic_character,
    conformal_dimension,
    sl2_fermionic_character,
    sl2_spinon_enumeration,
    spinon_string_function,
    verify_spinon_cut,
    weight_class,
)
from .partitions import Partition, SkewShape, all_partitions_upto, partitions_of
from .qseries import (
    QSeries,
    durfee_check,
    euler_inverse,
    inv_pochhammer,
    inv_pochhammer_product,
    inv_pochhammer_z_expansion,
    lemma_d3_check,
    pochhammer,
    pochhammer_z_expansion,
    qbinomial,
    qmultinomial,
)
from .strips import (
    BorderStrip,
    Motif,
    RapiditySeq,
    discover_rapidity_convention,
    energy,
    enumerate_border_strips,
    modes_to_strip,
    motif_to_rapidity,
    motif_to_strip,
    rapidity_energy,
    rapidity_to_motif,
    rapidity_to_strip,
    reduced_strips,
    sl2_partition_to_strip,
    strip_to_rapidity,
    vacuum_rapidities,
)
from .symfunc import (
    SymPoly,
    complete,
    elementary,
    ribbon_expansion,
    rogers_szego,
    rs_generating_check,
    schur_skew,
    skew_kostka,
    sl2_strip_product,
    stabilization_check,
    strip_schur,
    weight_projection,
)
from .yangian import (
    DrinfeldPolys,
    GZScheme,
    drinfeld_evaluation,
    drinfeld_tame,
    gz_schemes,
    gz_to_sst,
    gz_weight,
    hw_module_table,
    sl2_hw_character,
    sl2_yangian_decomposition,
    sst_to_gz,
    yangian_decomposition,
)

__version__ = "0.1.0"
