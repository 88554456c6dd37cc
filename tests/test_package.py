import gradmorph


def test_every_exported_name_resolves():
    # a name deleted from the package but left in __all__ breaks star imports
    assert [name for name in gradmorph.__all__
            if not hasattr(gradmorph, name)] == []
    namespace = {}
    exec("from gradmorph import *", namespace)
    assert set(gradmorph.__all__) <= namespace.keys()
