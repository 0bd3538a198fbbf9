import qzsg


def test_every_exported_name_resolves():
    for name in qzsg.__all__:
        getattr(qzsg, name)
