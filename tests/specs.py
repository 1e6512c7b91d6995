"""Synthetic corpus specs shared by tests."""

from itertools import product

from protoabs.corpus_tools import ClassTemplate, SynthSpec


def clienthello_spec(n_messages, seed=0, noise_rate=0.5):
    """8 ClientHello classes, one per VERSION x KXFAMILY x COMPRESSION, that
    share their head token, with 16 noise fields EXT<i> (V0, alternatives
    V1-V5); arity 20.  At noise 0.5 almost every row is distinct."""
    noise = tuple((4 + i, tuple("EXT%d=V%d" % (i, v) for v in range(1, 6))) for i in range(16))
    templates = tuple(
        ClassTemplate(
            "%s_%s_%s" % body,
            ("HANDSHAKE-IN=CLIENTHELLO", "VERSION=%s" % body[0], "KXFAMILY=%s" % body[1],
             "COMPRESSION=%s" % body[2]) + tuple("EXT%d=V0" % i for i in range(16)),
            noise,
        )
        for body in product(("TLS_1_0", "TLS_1_2"), ("RSA", "DHE"), ("NULL", "DEFLATE"))
    )
    return SynthSpec(templates, n_messages=n_messages, noise_rate=noise_rate, seed=seed, arity=20)
