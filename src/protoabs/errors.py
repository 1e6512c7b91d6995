"""Exception hierarchy.

UsageError-style problems are left to the CLI layer; everything raised by
the library derives from ProtoabsError so callers can map them to exit
codes in one place.
"""


class ProtoabsError(Exception):
    """Base class for all library errors."""


class DataError(ProtoabsError):
    """Bad input data (files, corpora, labels). CLI exit code 2."""


class EmptyCorpus(DataError):
    pass


class ArityMismatch(DataError):
    pass


class EmptyCluster(ProtoabsError):
    pass


class TooManyClusters(DataError):
    pass


class ConflictingLabels(DataError):
    pass


class InconsistentConstraints(DataError):
    pass


class NoLabels(DataError):
    pass


class ParseError(DataError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


class SampleTooLarge(DataError):
    pass


class UnmatchedMessage(DataError):
    pass


class BadSpec(DataError):
    pass


class InsufficientLabels(DataError):
    pass
