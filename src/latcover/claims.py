"""The claims that ``latcover verify-all`` checks, in four groups: the
catalog, the residue scans, the ideal certificates and the reference forms.
"""

from __future__ import annotations

from . import catalog, forms, groebner, modular
from .catalog import CheckResult
from .mat2 import RatMat2


def catalog_checks() -> list[CheckResult]:
    return catalog.verify_catalog(catalog.generate_catalog())


def modular_checks() -> list[CheckResult]:
    return [
        CheckResult(f"{r.name}-mod-{r.modulus}", r.ok, str(r.context or ""))
        for r in modular.run_all_scans()
    ]


def groebner_checks() -> list[CheckResult]:
    return [
        CheckResult("-".join(v.elements), v.ok, f"3 in ideal = {v.contains_3}")
        for v in groebner.verify_all(groebner.certificate_bases())
    ]


def form_checks() -> list[CheckResult]:
    """The three reference forms' verdicts, then F0's boxed value sets."""
    reference = (  # name, form, conjugator, variant, extraordinary
        ("F0", forms.F0, RatMat2.identity(), "d3", True),
        ("sextic-1-0", forms.sextic(1, 0), forms.SEXTIC_CONJUGATOR, "d6", True),
        ("XY(X+3Y)", forms.BinaryForm.of(0, 1, 3, 0), RatMat2.of("1/3", 0, 0, 1),
         "d3", False),
    )
    results = []
    for name, f, conj, variant, want in reference:
        got = forms.extraordinary_by_C3(f, conj, variant)
        results.append(CheckResult(name, got == want, f"extraordinary: {got}"))
    rep = forms.cross_value_check(forms.F0, forms.dagger(forms.F0), 10, 60)
    results.append(CheckResult(
        "value-sets-F0-vs-companion", rep.ok,
        f"unmatched {len(rep.unmatched_f)} and {len(rep.unmatched_g)} values",
    ))
    return results


#: The groups in the order ``verify-all`` runs them, each with the
#: function that returns its checks under names relative to the group.
GROUPS = (("catalog", catalog_checks), ("modular", modular_checks),
          ("groebner", groebner_checks), ("form", form_checks))


def checks() -> list[CheckResult]:
    """Every group's checks, in order, named ``group/name``."""
    return [CheckResult(f"{group}/{c.name}", c.ok, c.detail)
            for group, run in GROUPS for c in run()]
