"""Known-bad corpus: sender/handler module paired with proto_messages.

Seeds one finding per flow rule the node side can produce, each on a
dispatch-table key: an entry for ``DeadEnd``, which nothing constructs,
and one for the spec-less ``Rogue``.  A handler site is a key of a dict
assigned to a name ending in ``HANDLERS``, so ``Tabled`` is clean only
through the second table, while the ``isinstance`` test on ``Orphan``
handles nothing: it stays an orphan.  Never imported at runtime.
"""


class Node:
    HANDLERS = {
        Ping: "on_ping",
        Pong: "on_pong",
        Rogue: "on_rogue",  # protocol-unregistered (at class def)
        DeadEnd: "on_dead_end",  # protocol-dead-handler: no sender
    }
    PEER_HANDLERS = {
        Tabled: "on_tabled",
    }

    def __init__(self):
        self.log = []

    def send_all(self):
        return [Ping(), Pong(), Orphan(), Inner(), Tabled(), Rogue()]

    def on_message(self, payload):
        if isinstance(payload, Orphan):
            return
        table = {**self.HANDLERS, **self.PEER_HANDLERS}
        getattr(self, table[type(payload)])(payload)

    def on_ping(self, payload):
        self.log.append(payload)

    def on_pong(self, payload):
        self.log.append(payload)

    def on_rogue(self, payload):
        self.log.append(payload)

    def on_tabled(self, payload):
        self.log.append(payload)

    def on_dead_end(self, payload):
        self.log.append(payload)
