"""Known-bad corpus: sender/handler module paired with proto_messages.

Seeds one finding per flow rule the node side can produce: an
uncounted ``Ping`` send, an uncounted ``Ping`` handler, a dispatch
branch for ``DeadEnd`` that nothing constructs, and a handler for the
spec-less ``Rogue``.  Never imported at runtime.
"""


class Node:
    def __init__(self):
        self.pings_sent = 0
        self.pings_received = 0
        self.log = []

    def send_ping(self):
        self.pings_sent += 1
        return Ping()

    def send_ping_uncounted(self):
        return Ping()  # protocol-unaccounted-send: no pings_sent bump

    def send_others(self):
        return [Pong(), Orphan(), Inner(), Rogue()]

    def handle(self, payload):
        if isinstance(payload, Ping):
            self.pings_received += 1
            self.log.append(payload)
        elif isinstance(payload, Pong):
            self.log.append(payload)
        elif isinstance(payload, DeadEnd):
            self.log.append(payload)  # protocol-dead-handler: no sender
        elif isinstance(payload, Rogue):
            self.log.append(payload)  # protocol-unregistered (at class def)

    def on_ping_stats(self, payload):
        if isinstance(payload, Ping):
            self.log.append(payload)  # protocol-unaccounted-handler
