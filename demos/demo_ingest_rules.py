"""Walk through the ingestion pipeline on a hand-written decoded trace.

Parses the trace text, flattens each message into a fixed-arity token
vector (dropping the per-session RANDOM / SESSIONID values), and labels
the result with a small rule file.
"""

from protoabs import (
    apply_rules,
    parse_rule_lines,
    parse_trace_lines,
    preprocess,
)

TRACE = """\
# one handshake, then an alert
HANDSHAKE-IN CLIENTHELLO
VERSION TLS_1_2
RANDOM 6a8f0e51
CIPHERSUITES TLS_RSA_WITH_AES_128_CBC_SHA256 TLS_RSA_WITH_AES_256_CBC_SHA

HANDSHAKE-OUT SERVERHELLO
VERSION TLS_1_2
SESSIONID 77aa
--
ALERT-IN CLOSENOTIFY
LEVEL WARNING
--
"""

RULES = """\
0 1 HANDSHAKE-IN=CLIENTHELLO   # client hello
1 1 HANDSHAKE-OUT=SERVERHELLO  # server hello
2 1 ALERT-IN=CLOSENOTIFY       # incoming close-notify
"""


def main():
    traces = parse_trace_lines(TRACE.splitlines())
    print("parsed %d traces, %d messages"
          % (len(traces), sum(len(t.messages) for t in traces)))

    corpus = preprocess(traces, arity=8)
    for message in corpus.messages:
        kept = [tok for tok in message.fields if tok != "ABSENT"]
        print("  %s" % " | ".join(kept))

    rules = parse_rule_lines(RULES.splitlines())
    labels = apply_rules(corpus, rules)
    print("rule labels:", tuple(labels.labels.tolist()))


if __name__ == "__main__":
    main()
