"""Out-of-process benchmark of Auric serving and refit (see README.md)."""
