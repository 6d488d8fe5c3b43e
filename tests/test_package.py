import latcover


def test_every_exported_name_resolves():
    assert len(set(latcover.__all__)) == len(latcover.__all__)
    for name in latcover.__all__:
        assert hasattr(latcover, name), name
    namespace = {}
    exec("from latcover import *", namespace)
    assert set(latcover.__all__) <= namespace.keys()
