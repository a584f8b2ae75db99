"""Exception types shared across the package."""


class CharsegError(Exception):
    """Base class for all package-specific errors."""


# -- corpus ------------------------------------------------------------------

class InvalidUtf8(CharsegError):
    def __init__(self, position: int, reason: str = "", line: int | None = None):
        self.position = position
        self.line = line
        where = "" if line is None else f"line {line}: "
        super().__init__(f"{where}invalid UTF-8 at byte {position}" + (f": {reason}" if reason else ""))


class SpanViolation(CharsegError):
    """Token spans overlap, cover whitespace, or leave characters uncovered."""


class LengthMismatch(CharsegError):
    """Character sequence and tag sequence lengths differ."""

    def __init__(self, msg: str, sentence_index: int | None = None):
        self.sentence_index = sentence_index
        super().__init__(msg)


class EmptyCorpus(CharsegError):
    pass


class BadTag(CharsegError):
    def __init__(self, line: int, msg: str):
        self.line = line
        super().__init__(f"line {line}: {msg}")


class BadEscape(CharsegError):
    def __init__(self, line: int, msg: str):
        self.line = line
        super().__init__(f"line {line}: {msg}")


# -- numerical core ----------------------------------------------------------

class ShapeMismatch(CharsegError):
    pass


class BadRate(CharsegError):
    pass


class NumericFailure(CharsegError):
    """A computation produced NaN or infinity."""


class NonFiniteGradient(NumericFailure):
    """Gradients contain NaN or infinity; training must abort."""


class NonFiniteEmissions(NumericFailure):
    """Emission scores contain NaN or infinity, so no tag path can be scored."""


class UninitializedEmbedder(CharsegError):
    """Embedder tables do not match the vocabulary they are used with."""


# -- crf ---------------------------------------------------------------------

class NoAllowedPath(CharsegError):
    """The constraint mask leaves no complete tag path."""



# -- model / io --------------------------------------------------------------

class BadConfig(CharsegError):
    pass


class BadMagic(CharsegError):
    """Checkpoint file is corrupt, truncated, or not a checkpoint at all."""


class VocabMismatch(CharsegError):
    """Checkpoint was trained with a different vocabulary."""
