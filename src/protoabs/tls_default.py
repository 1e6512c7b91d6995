"""Bundled 21-class TLS-like message templates and the matching
rule-based reference abstraction.

Class identity is carried by the first token (sub-protocol/direction plus
message type); bodies carry realistic-looking fields, several of which are
noisy so classes have internal spread.  Four one-field classes and three
direction twins are deliberately close under the unit Hamming metric,
which is what the unsupervised baseline trips over.
"""

from .corpus_tools import ClassTemplate, SynthSpec, parse_rule_lines
from .model import DEFAULT_ARITY

_VERSIONS = ["TLS_1_2", "TLS_1_1", "TLS_1_0"]
_CIPHERS = [
    "TLS_RSA_WITH_AES_128_CBC_SHA256",
    "TLS_RSA_WITH_AES_256_CBC_SHA",
    "TLS_DHE_RSA_WITH_AES_128_CBC_SHA",
    "TLS_DHE_RSA_WITH_AES_256_CBC_SHA256",
    "TLS_RSA_WITH_3DES_EDE_CBC_SHA",
    "TLS_RSA_WITH_RC4_128_SHA",
]


def _alts(key, values, own):
    return tuple("%s=%s" % (key, v) for v in values if v != own)


def default_templates():
    templates = []

    ch = ["HANDSHAKE-IN=CLIENTHELLO", "VERSION=TLS_1_2"]
    ch += ["CIPHERSUITES=%s" % c for c in _CIPHERS]
    ch += ["COMPRESSION=NULL", "EXTENSIONS=RENEGOTIATION", "EXTENSIONS=SERVERNAME"]
    noise = [(1, _alts("VERSION", _VERSIONS, "TLS_1_2"))]
    noise += [(2 + i, _alts("CIPHERSUITES", _CIPHERS, c)) for i, c in enumerate(_CIPHERS)]
    noise += [(10, ("EXTENSIONS=HEARTBEAT", "EXTENSIONS=SESSIONTICKET"))]
    templates.append(ClassTemplate("clienthello", tuple(ch), tuple(noise)))

    templates.append(ClassTemplate(
        "serverhello",
        ("HANDSHAKE-OUT=SERVERHELLO", "VERSION=TLS_1_2",
         "CIPHERSUITE=TLS_RSA_WITH_AES_128_CBC_SHA256",
         "COMPRESSION=NULL", "EXTENSIONS=RENEGOTIATION"),
        ((1, _alts("VERSION", _VERSIONS, "TLS_1_2")),
         (2, _alts("CIPHERSUITE", _CIPHERS, _CIPHERS[0]))),
    ))

    templates.append(ClassTemplate(
        "server_certificate",
        ("HANDSHAKE-OUT=CERTIFICATE", "CERTTYPE=X509", "SUBJECT=CN_SERVER",
         "ISSUER=CN_CA", "KEYTYPE=RSA", "KEYBITS=2048"),
        ((2, ("SUBJECT=CN_LOCALHOST", "SUBJECT=CN_EXAMPLE")),
         (3, ("ISSUER=CN_ROOT", "ISSUER=CN_INTERMEDIATE")),
         (5, ("KEYBITS=4096", "KEYBITS=1024"))),
    ))

    templates.append(ClassTemplate(
        "serverkeyexchange",
        ("HANDSHAKE-OUT=SERVERKEYEXCHANGE", "KX=DHE", "GROUP=FFDHE2048",
         "SIGALG=RSA_SHA256"),
        ((2, ("GROUP=FFDHE3072", "GROUP=FFDHE4096")),
         (3, ("SIGALG=RSA_SHA1", "SIGALG=RSA_SHA384"))),
    ))

    templates.append(ClassTemplate(
        "serverhellodone", ("HANDSHAKE-OUT=SERVERHELLODONE",), ()))

    templates.append(ClassTemplate(
        "clientkeyexchange",
        ("HANDSHAKE-IN=CLIENTKEYEXCHANGE", "KX=RSA", "PMSLEN=48"),
        ((1, ("KX=DHE",)),),
    ))

    templates.append(ClassTemplate(
        "client_certificate",
        ("HANDSHAKE-IN=CERTIFICATE", "CERTTYPE=X509", "SUBJECT=CN_CLIENT",
         "ISSUER=CN_CA", "KEYTYPE=RSA", "KEYBITS=2048"),
        ((2, ("SUBJECT=CN_USER", "SUBJECT=CN_DEVICE")),
         (3, ("ISSUER=CN_ROOT", "ISSUER=CN_INTERMEDIATE")),
         (5, ("KEYBITS=4096", "KEYBITS=1024"))),
    ))

    templates.append(ClassTemplate(
        "certificateverify",
        ("HANDSHAKE-IN=CERTIFICATEVERIFY", "SIGALG=RSA_SHA256", "SIGLEN=256"),
        ((1, ("SIGALG=RSA_SHA1", "SIGALG=RSA_SHA384")),),
    ))

    templates.append(ClassTemplate(
        "finished_in", ("HANDSHAKE-IN=FINISHED", "VERIFYLEN=12"), ()))
    templates.append(ClassTemplate(
        "finished_out", ("HANDSHAKE-OUT=FINISHED", "VERIFYLEN=12"), ()))

    templates.append(ClassTemplate(
        "changecipherspec_in", ("CHANGECIPHERSPEC-IN=CCS",), ()))
    templates.append(ClassTemplate(
        "changecipherspec_out", ("CHANGECIPHERSPEC-OUT=CCS",), ()))

    templates.append(ClassTemplate(
        "alert_in_closenotify",
        ("ALERT-IN=CLOSENOTIFY", "LEVEL=WARNING", "CODE=0"), ()))
    templates.append(ClassTemplate(
        "alert_out_closenotify",
        ("ALERT-OUT=CLOSENOTIFY", "LEVEL=WARNING", "CODE=0"), ()))
    templates.append(ClassTemplate(
        "alert_in_unexpected",
        ("ALERT-IN=UNEXPECTEDMESSAGE", "LEVEL=FATAL", "CODE=10"), ()))
    templates.append(ClassTemplate(
        "alert_out_handshakefailure",
        ("ALERT-OUT=HANDSHAKEFAILURE", "LEVEL=FATAL", "CODE=40"), ()))

    templates.append(ClassTemplate(
        "hellorequest", ("HANDSHAKE-OUT=HELLOREQUEST",), ()))

    templates.append(ClassTemplate(
        "certificaterequest",
        ("HANDSHAKE-OUT=CERTIFICATEREQUEST", "CERTTYPES=RSA_SIGN",
         "SIGALGS=RSA_SHA256", "SIGALGS=RSA_SHA1", "CAS=CN_CA"),
        ((2, ("SIGALGS=RSA_SHA384", "SIGALGS=ECDSA_SHA256")),
         (3, ("SIGALGS=RSA_MD5", "SIGALGS=ECDSA_SHA1")),
         (4, ("CAS=CN_ROOT", "CAS=CN_INTERMEDIATE"))),
    ))

    templates.append(ClassTemplate(
        "appdata_in", ("APPDATA-IN=DATA", "LEN=SMALL"),
        ((1, ("LEN=MEDIUM", "LEN=LARGE", "LEN=JUMBO")),)))
    templates.append(ClassTemplate(
        "appdata_out", ("APPDATA-OUT=DATA", "LEN=SMALL"),
        ((1, ("LEN=MEDIUM", "LEN=LARGE", "LEN=JUMBO")),)))

    templates.append(ClassTemplate(
        "newsessionticket",
        ("HANDSHAKE-OUT=NEWSESSIONTICKET", "LIFETIME=7200", "TICKETLEN=192"),
        ((1, ("LIFETIME=300", "LIFETIME=0")),
         (2, ("TICKETLEN=160", "TICKETLEN=224"))),
    ))

    return tuple(templates)


def default_synth_spec(n_messages=5000, noise_rate=0.05, seed=0, arity=DEFAULT_ARITY):
    return SynthSpec(
        class_templates=default_templates(),
        n_messages=n_messages,
        noise_rate=noise_rate,
        seed=seed,
        arity=arity,
    )


def default_rules_text():
    """Rule file matching the default templates: class = first token."""
    lines = ["# reference abstraction: one rule per message head token"]
    for class_id, t in enumerate(default_templates()):
        lines.append("%d 1 %s  # %s" % (class_id, t.tokens[0], t.name))
    return "\n".join(lines) + "\n"


def default_rules():
    return parse_rule_lines(default_rules_text().splitlines())
