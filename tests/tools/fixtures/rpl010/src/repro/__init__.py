"""RPL010 fixture: the top-level package (never checked itself)."""
