"""Feature providers for tests."""


class DictProvider:
    """Features by (frame, index); a missing key is a detection without one.

    The provider reads the dict it is given, so features put in it later are served too.
    """

    def __init__(self, features):
        self.features = features

    def fetch(self, frame, index):
        return self.features.get((frame, index))
