"""Exact-arithmetic towers of covers of elliptic curves.

Build truncated towers of twisted-multiplication covers over a base curve or
product of curves, compute their deck-transformation groups over certified
finite-field realizations, decide tower isomorphism over Q through torsion
certificates, and model the matching factorial chain of lattice quotients.

Each module loads the first time something uses it, and importing the
package loads none of them.  ``ectower.X`` for a public name X imports X's
home module then (PEP 562), and reads X off that module on every access.
``import ectower.towers`` loads config, errors, fields, groups, curves and
towers: the finite-field path of towers, fibers and deck groups.  Q's
arithmetic (rationals, which fields.QQ resolves to), the Q torsion
certificates (torsion), the iso decision (iso), the lattice chain (chain)
and JSON (serialize) load on first use.  The CLI (cli) loads its command's
handlers when the command runs: commands_fq for tower-build and chain-check,
which load no Q arithmetic, and commands_q for the certificate commands.
The value types are __slots__ records (config.Record), so no module
imports dataclasses.
"""

import importlib

__version__ = "0.1.0"

# home module: the public names it gives the package
_NAMES = {
    "config": "Caps DEFAULT_CAPS",
    "fields": "QQ ExtField FieldElement PrimeField Rational find_irreducible",
    "groups": "FiniteAbelianGroup",
    "curves": "EllipticCurve Point ProductPoint ProductVariety",
    "torsion": "MAZUR_ORDERS NonTorsionCertificate TorsionCertificate order_ff"
    " torsion_subgroup_Q torsion_test_Q",
    "towers": "CompositeMap Tower TwistedMulMap deck_group fiber full_torsion_field"
    " rational_fiber",
    "iso": "NonIsoCertificate TowerIsoWitness classify_family necessity_test verify_witness"
    " witness_search",
    "chain": "LatticeGroup chain_subgroup match_deck quotient refine separates",
}
_HOME = {name: home for home, names in _NAMES.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + home, __name__), name)


def __dir__():
    return sorted({*globals(), *_HOME})
