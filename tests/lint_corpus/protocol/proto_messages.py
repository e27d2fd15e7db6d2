"""Known-bad corpus for the protocol conformance analyzer.

A miniature protocol-definition module in the spec form: every message
class carries one ``@wire_message`` spec (the analyzer reads only its
literal ``enveloped`` / ``group`` keywords) and ``PROTOCOL_MESSAGES``
marks the module as the definition module.  Seeded: an ``Orphan``
message nothing handles, and a spec-less ``Rogue`` class the node
module handles anyway.  tests/test_protocol_analysis.py pins the exact
finding histogram; expected_graph.json pins the flow graph extracted
from this pair of files.

Never imported at runtime — analyzed purely as source.
"""


def wire_message(**spec):
    return lambda cls: cls


@wire_message(tag=1, header=8, fields=[], group="pings")
class Ping:
    pass


@wire_message(tag=2, header=8, fields=[])
class Pong:
    pass


@wire_message(tag=3, header=8, fields=[])
class Orphan:
    pass


@wire_message(tag=4, header=8, fields=[])
class DeadEnd:
    pass


class Rogue:
    pass


@wire_message(tag=5, header=8, fields=[], enveloped=True)
class Inner:
    pass


@wire_message(tag=6, header=8, fields=[])
class Tabled:
    pass


PROTOCOL_MESSAGES = (Ping, Pong, Orphan, DeadEnd, Inner, Tabled)
