"""The names of the catalog: each named standard example with its
description and structure equations, and the parametrized families.  It
imports no engine module, so `pkl catalog` lists the names without loading
what builds a structure; `catalog` builds them.
"""

from __future__ import annotations

# name -> (description, n, structure equations as {"aN": literal}; a missing
# key is d a^N = 0)
_NAMED: dict[str, tuple[str, int, dict[str, str]]] = {
    "torus2": ("abelian R^4 with the standard structure", 2, {}),
    "torus3": ("abelian R^6 with the standard structure", 3, {}),
    "torus4": ("abelian R^8 with the standard structure", 4, {}),
    "kt": (
        "Kodaira-Thurston: d a^2 = a^{1,1b} (nilpotent structure on h3 + R)",
        2,
        {"a2": "a1_b1"},
    ),
    "iwasawa": ("complex Heisenberg: d a^3 = a^{12}", 3, {"a3": "a12"}),
    "h5r": ("d a^3 = a^{1,1b} + a^{2,2b} on six real dimensions", 3, {"a3": "a1_b1 + a2_b2"}),
    "qn8a": ("central plane extension of C^3 with d a^4 = a^{12}", 4, {"a4": "a12"}),
    "qn8b": (
        "central plane extension of C^3 with d a^4 = a^{1,1b} + a^{2,2b}",
        4,
        {"a4": "a1_b1 + a2_b2"},
    ),
    "qn8c": ("central plane extension of C^3 with d a^4 = a^{1,2b}", 4, {"a4": "a1_b2"}),
    "iwasawa_x_c": ("complex Heisenberg times C", 4, {"a3": "a12"}),
}


PARAMETRIZED = "snn8f1:eps,nu,a,b[:delta] and snn8f2:eps,mu,nu,a,b"


def registry() -> dict[str, str]:
    return {name: desc for name, (desc, _, _) in sorted(_NAMED.items())}
