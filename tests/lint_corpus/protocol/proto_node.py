"""Known-bad corpus: sender/handler module paired with proto_messages.

Seeds one finding per flow rule the node side can produce: a dispatch
table entry for ``DeadEnd``, which nothing constructs, and an
``isinstance`` branch for the spec-less ``Rogue``.  ``Tabled`` is clean
only because the analyzer reads the table: its one handler site is a
``HANDLERS`` key.  Never imported at runtime.
"""


class Node:
    HANDLERS = {
        Tabled: "on_tabled",
        DeadEnd: "on_dead_end",  # protocol-dead-handler: no sender
    }

    def __init__(self):
        self.log = []

    def send_all(self):
        return [Ping(), Pong(), Orphan(), Inner(), Tabled(), Rogue()]

    def handle(self, payload):
        if isinstance(payload, Ping):
            self.log.append(payload)
        elif isinstance(payload, Pong):
            self.log.append(payload)
        elif isinstance(payload, Rogue):
            self.log.append(payload)  # protocol-unregistered (at class def)
        else:
            getattr(self, self.HANDLERS[type(payload)])(payload)

    def on_tabled(self, payload):
        self.log.append(payload)

    def on_dead_end(self, payload):
        self.log.append(payload)
