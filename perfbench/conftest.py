"""The benchmark is not a test suite: pytest collects nothing here."""

collect_ignore_glob = ["*"]
