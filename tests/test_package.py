import inspect
import sys

import siegelnum


def test_each_export_is_public_where_it_is_defined():
    exports = {name: obj for name, obj in vars(siegelnum).items()
               if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exports
    drift = [name for name, obj in exports.items()
             if name not in sys.modules[obj.__module__].__all__]
    assert drift == []
