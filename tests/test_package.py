"""The package namespace: `repcorr` exports every name in its modules' `__all__`."""

import importlib

import repcorr

MODULES = ("chartable", "corrgraph", "cyclo", "errors", "graphs", "groups", "intlinalg", "reps")

# The names the package exported while it listed them by hand.
EXPORTED_BEFORE = """
    CharTable character_table format_table load_table tables_equal_up_to_row_order
    CorrEdge CorrGraph CONVENTIONS PimsnerData build_d_graph build_e_graph ktheory_corr
    pimsner_matrices Cyclo parse_cyclo zeta RepcorrError SpecError VerificationError
    CircleGraph CircleReport Frequency MultiGraph SimplicityReport SkewSpec Stub
    circle_analysis dot_export from_corr ktheory_graph parse_frequency semigroup_r_check
    simplicity_check skew_product sources_sinks ClassData Group conjugacy construct_group
    parse_cycles IntMatrix KGroups coker_ker format_matrix parse_matrix smith_normal_form
    Rep decompose dsum is_pi_injective parse_rep_spec perm_rep regular_rep
    rep_from_character rep_from_mults tensor trivial_rep __version__
""".split()


def test_package_exports_each_module_all():
    concatenated = []
    for name in MODULES:
        module = importlib.import_module(f"repcorr.{name}")
        for attr in module.__all__:
            assert getattr(repcorr, attr) is getattr(module, attr), (name, attr)
        concatenated += module.__all__
    concatenated.append("__version__")
    assert list(repcorr.__all__) == concatenated
    assert len(set(repcorr.__all__)) == len(repcorr.__all__) == 71
    assert len(EXPORTED_BEFORE) == 58
    assert set(EXPORTED_BEFORE) <= set(repcorr.__all__)
    assert type(repcorr.smith_normal_form(repcorr.IntMatrix.identity(2))) is repcorr.SmithForm


def test_dir_lists_the_namespace_and_every_exported_name():
    names = dir(repcorr)
    assert names == sorted({*vars(repcorr), *repcorr.__all__})
    assert {*MODULES, "__version__", "Cyclo", "tensor"} <= set(names)
