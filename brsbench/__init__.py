"""Fixed-work benchmark of the BRS reproduction (see README.md here)."""
