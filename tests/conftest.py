import pytest

from fimscore import models


@pytest.fixture
def chunk_spy(monkeypatch):
    """``chunk_spy(model, k)`` caps models.reduce_grad_groups chunks at k
    groups of ``model`` and returns the list that records the group count
    of every grad_groups call the model then makes."""

    def install(model, groups_per_chunk):
        monkeypatch.setattr(models, "CHUNK_FLOATS",
                            groups_per_chunk * model.params.n_params)
        sizes = []
        grad_groups = model.grad_groups

        def spy(x, group_size):
            sizes.append(len(x) // group_size)
            return grad_groups(x, group_size)

        monkeypatch.setattr(model, "grad_groups", spy)
        return sizes

    return install
