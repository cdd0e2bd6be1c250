"""fogrep: a discrete-event simulator of a fog data store with mobile
clients, plus the client-side Markov prediction library it evaluates.
The package imports none of its modules, so that each command loads only
what it runs (see ``fogrep.cli``); import them by name."""

__version__ = "0.1.0"
