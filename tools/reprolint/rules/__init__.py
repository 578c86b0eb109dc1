"""Rule modules.  Importing this package populates the rule registry."""

from reprolint.rules import (  # noqa: F401  (imported for registration side effect)
    rpl001_rng,
    rpl002_linalg,
    rpl003_layering,
    rpl004_floateq,
    rpl005_exceptions,
    rpl006_determinism,
    rpl007_lockdiscipline,
    rpl008_durability,
    rpl009_schema_drift,
    rpl010_unreferenced,
)
