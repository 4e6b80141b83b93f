"""repro.designs: the design-corpus subsystem.

Workloads enter the flow here.  A declarative, versioned
:class:`DesignSpec` names a generator and its knobs; the corpus
table groups specs into named families (``synthetic``,
``hierarchical``, ``gated``, ``imported``) selectable with corpus
selectors (``family:*``, globs, exact names); the DEF-lite importer
brings externally-described floorplans in through schema validation;
and :func:`spec_fingerprint` gives every spec a *content* identity —
the hash the artifact store keys flow products by, decoupled from the
display name.

See ``docs/WORKLOADS.md`` for the schema, the importer format, and how
cache keys derive from specs.
"""

from repro.designs.aggressors import generate_aggressors
from repro.designs.corpus import DesignFamily, benchmark_suite
from repro.designs.generate import generate_design, generator_names
from repro.designs.importer import (DEFLITE_SCHEMA, ImportContext,
                                    deflite_to_design, design_to_deflite,
                                    import_design, load_deflite,
                                    save_deflite, validate_deflite)
from repro.designs.registry import (families, family, family_of,
                                    iter_specs, resolve_selectors,
                                    spec_by_name, spec_names)
from repro.designs.spec import (SPEC_SCHEMA, DesignSpec, spec_fingerprint,
                                spec_from_dict, spec_to_dict)

__all__ = [
    "DEFLITE_SCHEMA",
    "SPEC_SCHEMA",
    "DesignFamily",
    "DesignSpec",
    "ImportContext",
    "benchmark_suite",
    "deflite_to_design",
    "design_to_deflite",
    "families",
    "family",
    "family_of",
    "generate_aggressors",
    "generate_design",
    "generator_names",
    "import_design",
    "iter_specs",
    "load_deflite",
    "resolve_selectors",
    "save_deflite",
    "spec_by_name",
    "spec_fingerprint",
    "spec_from_dict",
    "spec_names",
    "spec_to_dict",
    "validate_deflite",
]
