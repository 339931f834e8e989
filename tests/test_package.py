from collections import Counter

import vkwave


def test_star_exports_are_unique_and_resolve():
    # `from vkwave import *` imports exactly these names
    repeated = [name for name, count in Counter(vkwave.__all__).items() if count > 1]
    assert repeated == []
    missing = [name for name in vkwave.__all__ if not hasattr(vkwave, name)]
    assert missing == []
