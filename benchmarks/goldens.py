"""Expected results of the benchmark, and how they are made and compared.

``goldens.json`` holds the exact profiles (characteristic polynomials of A,
S+(U), S+(U^2), S+(U^3)) of every srg_ladder and relabel_small graph, the
expected Shrikhande vs rook:4 verdicts, and the closed-form S+(U)/S+(U^2)
spectra of the verify_cli graphs.  Profiles are isomorphism invariants, so
one golden serves every seed.

``regenerate`` records a golden only after it passes checks that do not
rest on the code path being timed:

* s1 equals ``closed_form_charpoly_su`` (and s2 ``closed_form_charpoly_su2``
  when k > 2), built from the adjacency polynomial alone;
* the profile is unchanged under two further random relabellings;
* (-1)^nk * s3(0) equals the Bareiss determinant of S+(U^3);
* each spectrum's multiplicities add up to nk, every rational eigenvalue is
  an exact root of the closed-form polynomial, and a relabelled copy gives
  the same spectrum within the comparison tolerance.
"""

from __future__ import annotations

import json
import random

FLOAT_TOL = 1e-9


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(got, want) -> bool:
    """Integers must match exactly; floats within FLOAT_TOL (relative above 1)."""
    if isinstance(got, bool) or isinstance(want, bool):
        return got is want
    if isinstance(want, int):
        return isinstance(got, (int, float)) and got == want
    return isinstance(got, (int, float)) and abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))


def _sort_key(e: dict):
    if e.get("type") == "rational":
        return (0, float(e["value"]), 0.0, e["multiplicity"])
    return (1, float(e["root_sum"]), float(e["root_product"]), e["multiplicity"])


def spectrum_matches(got: list, want: list) -> bool:
    """Closed-form spectrum entries equal up to order and float round-off.

    Types, multiplicities, conjugacy and integer values must match exactly.
    Bytes are never compared, so an exact-arithmetic rewrite that changes
    only the last ulp of an irrational root sum still matches.
    """
    if len(got) != len(want):
        return False
    try:
        pairs = zip(sorted(got, key=_sort_key), sorted(want, key=_sort_key))
        for g, w in pairs:
            if g["type"] != w["type"] or g["multiplicity"] != w["multiplicity"]:
                return False
            if w["type"] == "rational":
                if not _close(g["value"], w["value"]):
                    return False
            elif not (
                _close(g["root_sum"], w["root_sum"])
                and _close(g["root_product"], w["root_product"])
                and g["conjugate"] is w["conjugate"]
            ):
                return False
    except (KeyError, TypeError, ValueError):
        return False
    return True


def regenerate(path: str) -> None:
    """Recompute, cross-check and write every golden; raises if a check fails."""
    from qwalkspec import generators
    from qwalkspec.arcspace import build_arc_space
    from qwalkspec.intmat import bareiss_determinant
    from qwalkspec.invariants import compare, profile
    from qwalkspec.supports import (
        build_support_set,
        closed_form_charpoly_su,
        closed_form_charpoly_su2,
        closed_form_spectrum_su,
        closed_form_spectrum_su2,
    )

    import workloads

    rng = random.Random("goldens")
    profiles = {}
    for spec in workloads.SRG_LADDER + workloads.SMALL:
        g = generators.parse_generator_spec(spec)
        k = workloads.valency(g)
        p = profile(g, spec)
        coeffs = workloads.coefficients(p)
        _require(coeffs["s1"] == list(closed_form_charpoly_su(g).coeffs), spec, "s1 closed form")
        if k > 2:
            _require(coeffs["s2"] == list(closed_form_charpoly_su2(g).coeffs), spec, "s2 closed form")
        for _ in range(2):
            other = profile(workloads.relabelled(g, rng), spec)
            _require(workloads.coefficients(other) == coeffs, spec, "relabelling invariance")
        nk = g.n * k
        det = bareiss_determinant(build_support_set(build_arc_space(g)).s3)
        _require((-1) ** nk * coeffs["s3"][0] == det, spec, "s3(0) vs Bareiss det S+(U^3)")
        profiles[spec] = {"n": g.n, "k": k, **coeffs}
        print(f"profile {spec}: ok", flush=True)

    pair = workloads.SRG_PAIR
    first, second = (
        workloads.golden_profile(spec, profiles[spec]) for spec in pair
    )
    verdicts = {
        w: "cospectral" if profiles[pair[0]][w] == profiles[pair[1]][w] else "distinguished"
        for w in workloads.INVARIANTS
    }
    _require(compare(first, second).verdicts == verdicts, "|".join(pair), "verdicts")

    spectra = {}
    for spec in workloads.VERIFY:
        g = generators.parse_generator_spec(spec)
        k = workloads.valency(g)
        spectra[spec] = {}
        forms = [("s1", closed_form_spectrum_su, closed_form_charpoly_su)]
        if k > 2:
            forms.append(("s2", closed_form_spectrum_su2, closed_form_charpoly_su2))
        for which, spectrum_of, charpoly_of in forms:
            entries = spectrum_of(g).to_json()["entries"]
            total = sum(e["multiplicity"] * (1 if e["type"] == "rational" else 2) for e in entries)
            _require(total == g.n * k, spec, f"{which} multiplicities")
            cp = charpoly_of(g)
            for e in entries:
                if e["type"] == "rational":
                    _require(cp.evaluate(e["value"]) == 0, spec, f"{which} root {e['value']}")
            again = spectrum_of(workloads.relabelled(g, rng)).to_json()["entries"]
            _require(spectrum_matches(again, entries), spec, f"{which} relabelling invariance")
            spectra[spec][which] = entries
        print(f"spectrum {spec}: ok", flush=True)

    data = {"profiles": profiles, "verdicts": {"|".join(pair): verdicts}, "spectra": spectra}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def _require(ok: bool, spec: str, what: str) -> None:
    if not ok:
        raise AssertionError(f"golden for {spec}: {what} check failed")
