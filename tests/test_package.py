import types

import corules


def test_all_lists_every_public_name_and_no_module():
    public = {name for name, value in vars(corules).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(corules.__all__)) == len(corules.__all__)
    assert set(corules.__all__) == public
    for name in corules.__all__:
        assert not isinstance(getattr(corules, name), types.ModuleType), name
