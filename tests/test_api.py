import ltlflearn


def test_star_import_gives_every_public_name():
    namespace: dict = {}
    exec("from ltlflearn import *", namespace)
    assert len(ltlflearn.__all__) == len(set(ltlflearn.__all__))
    for name in ltlflearn.__all__:
        assert namespace[name] is getattr(ltlflearn, name), name
