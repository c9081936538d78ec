"""The exact-context order certificate as it was built before certificates were shared.

``infinite_order_certificate`` used to build a fresh certificate in an exact
context on every call; it now hands out one cached object per normal form.
This is the fresh construction, kept as the oracle the cached one must equal
field for field.
"""

from chainlab.contexts import CertificateStatus, InfiniteOrderCertificate


def fresh_exact_certificate(w, ctx):
    nf = ctx.normal_form(w)
    if nf == ():
        return InfiniteOrderCertificate(
            CertificateStatus.INCONCLUSIVE, "normal-form", "trivial element"
        )
    return InfiniteOrderCertificate(
        CertificateStatus.PROVEN_INFINITE,
        "graph-group-normal-form",
        f"nontrivial normal form {nf} in a torsion-free group",
    )
