"""Session calculus with checkpoint-based rollback: terms, types, checkers,
and a simulator for sessions of two roles (binary) or more."""

__version__ = "0.1.0"


def corpus_dir():
    """Directory of the bundled example programs and types, a
    `pathlib.Path`; `pathlib` is imported here, so that importing the
    package does not load it."""
    from pathlib import Path
    return Path(__file__).resolve().parent / "corpus"
